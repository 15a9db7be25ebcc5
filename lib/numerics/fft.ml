(* Iterative radix-2 Cooley-Tukey FFT over separate re/im arrays, run
   from a cached plan, and the real trigonometric transforms of the
   spectral Poisson solver built on it with Makhoul's reordering.

   A plan of length n holds:
   - [rev]: the bit-reversal permutation;
   - [mk_rev]: where input sample m of a DCT-II lands in the
     bit-reversed FFT input (Makhoul: v(i) = x(2i) for the first half,
     v(n-1-i) = x(2i+1) for the second);
   - [mk]: where output sample m of a DCT-III is read from the FFT
     output (the same reordering, undone);
   - [tw_re]/[tw_im]: exact twiddles cos/sin(2 pi j / n), j < n/2,
     each from its own angle (no recurrence);
   - [rot_re]/[rot_im]: Makhoul's rotations cos/sin(pi k / 2n);
   - [re]/[im]/[line]: the work buffers of one line transform.

   So a line transform allocates nothing; a plan is not shareable
   between domains. *)

let is_pow2 n = n > 0 && n land (n - 1) = 0

type plan = {
  n : int;
  rev : int array;
  mk_rev : int array;
  mk : int array;
  tw_re : float array;
  tw_im : float array;
  rot_re : float array;
  rot_im : float array;
  re : float array;
  im : float array;
  line : float array;
}

let plan n =
  (* n <= 0 is subsumed by is_pow2 but spelling it out makes the
     angle divisors provably positive (N2) *)
  if n <= 0 || not (is_pow2 n) then
    invalid_arg "Fft.plan: length must be a power of two";
  let bits =
    let b = ref 0 in
    while 1 lsl !b < n do
      incr b
    done;
    !b
  in
  let rev =
    Array.init n (fun i ->
        let r = ref 0 in
        for b = 0 to bits - 1 do
          if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
        done;
        !r)
  in
  let mk =
    Array.init n (fun m -> if m land 1 = 0 then m / 2 else n - 1 - (m / 2))
  in
  let fn = float_of_int n in
  let half = max 1 (n / 2) in
  let twiddle f j = f (2.0 *. Float.pi *. float_of_int j /. fn) in
  let rotation f k = f (Float.pi *. float_of_int k /. (2.0 *. fn)) in
  {
    n;
    rev;
    mk_rev = Array.map (fun v -> rev.(v)) mk;
    mk;
    tw_re = Array.init half (twiddle cos);
    tw_im = Array.init half (twiddle sin);
    rot_re = Array.init n (rotation cos);
    rot_im = Array.init n (rotation sin);
    re = Array.make n 0.0;
    im = Array.make n 0.0;
    line = Array.make n 0.0;
  }

(* The butterfly stages over bit-reversed input, giving natural-order
   output: [sign] is -1 for the forward transform, +1 for the
   (unnormalised) inverse. *)
let butterflies p re im sign =
  let n = p.n in
  let half = ref 1 and step = ref (n lsr 1) in
  while !half < n do
    let len = 2 * !half in
    for k = 0 to !half - 1 do
      let wr = p.tw_re.(k * !step) and wi = sign *. p.tw_im.(k * !step) in
      let a = ref k in
      while !a < n do
        let b = !a + !half in
        let tr = (re.(b) *. wr) -. (im.(b) *. wi) in
        let ti = (re.(b) *. wi) +. (im.(b) *. wr) in
        re.(b) <- re.(!a) -. tr;
        im.(b) <- im.(!a) -. ti;
        re.(!a) <- re.(!a) +. tr;
        im.(!a) <- im.(!a) +. ti;
        a := !a + len
      done
    done;
    half := len;
    step := !step lsr 1
  done
[@@placer_lint.hot]

let transforms_counter = Telemetry.Counter.make "fft.transforms"

let transform ~inverse re im =
  let n = Array.length re in
  if Array.length im <> n then invalid_arg "Fft: re/im size mismatch";
  if not (is_pow2 n) then invalid_arg "Fft: length must be a power of two";
  Telemetry.Counter.incr transforms_counter;
  let p = plan n in
  for i = 0 to n - 1 do
    let j = p.rev.(i) in
    if i < j then begin
      let tr = re.(i) in
      re.(i) <- re.(j);
      re.(j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(j);
      im.(j) <- ti
    end
  done;
  butterflies p re im (if inverse then 1.0 else -1.0);
  if inverse && n > 1 then begin
    let s = 1.0 /. float_of_int n in
    for i = 0 to n - 1 do
      re.(i) <- re.(i) *. s;
      im.(i) <- im.(i) *. s
    done
  end

let forward re im = transform ~inverse:false re im
let inverse re im = transform ~inverse:true re im

(* DCT-II of the line src.(off + m * stride), m < n, into the same
   positions of dst: C(k) = Re(exp(-i pi k / 2n) * FFT(v)(k)). *)
let dct_ii p src dst ~off ~stride =
  let n = p.n and re = p.re and im = p.im in
  for m = 0 to n - 1 do
    re.(p.mk_rev.(m)) <- src.(off + (m * stride));
    im.(m) <- 0.0
  done;
  butterflies p re im (-1.0);
  for k = 0 to n - 1 do
    dst.(off + (k * stride)) <-
      (re.(k) *. p.rot_re.(k)) +. (im.(k) *. p.rot_im.(k))
  done
[@@placer_lint.hot]

(* Inverse Makhoul step on the coefficients in [p.line]: the FFT input
   V(0) = X(0), V(k) = 1/2 exp(i pi k / 2n) (X(k) - i X(n-k)), whose
   unnormalised inverse FFT holds the DCT-III in Makhoul order in
   [p.re]. *)
let dct_iii_of_line p =
  let n = p.n and x = p.line and re = p.re and im = p.im in
  re.(0) <- x.(0);
  im.(0) <- 0.0;
  for k = 1 to n - 1 do
    let c = p.rot_re.(k) and s = p.rot_im.(k) in
    let a = x.(k) and b = x.(n - k) in
    let j = p.rev.(k) in
    re.(j) <- 0.5 *. ((c *. a) +. (s *. b));
    im.(j) <- 0.5 *. ((s *. a) -. (c *. b))
  done;
  butterflies p re im 1.0
[@@placer_lint.hot]

(* DCT-III: y(m) = sum_k X(k) cos(pi k (2m+1) / 2n). *)
let dct_iii p src dst ~off ~stride =
  let n = p.n in
  for k = 0 to n - 1 do
    p.line.(k) <- src.(off + (k * stride))
  done;
  dct_iii_of_line p;
  for m = 0 to n - 1 do
    dst.(off + (m * stride)) <- p.re.(p.mk.(m))
  done
[@@placer_lint.hot]

(* DST-III: y(m) = sum_k X(k) sin(pi k (2m+1) / 2n), computed as
   (-1)^m times the DCT-III of the reversed coefficients
   Z(0) = 0, Z(k) = X(n-k). *)
let dst_iii p src dst ~off ~stride =
  let n = p.n in
  p.line.(0) <- 0.0;
  for k = 1 to n - 1 do
    p.line.(k) <- src.(off + ((n - k) * stride))
  done;
  dct_iii_of_line p;
  for m = 0 to n - 1 do
    let y = p.re.(p.mk.(m)) in
    dst.(off + (m * stride)) <- (if m land 1 = 0 then y else -.y)
  done
[@@placer_lint.hot]
