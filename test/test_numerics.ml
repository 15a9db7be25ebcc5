(* Tests for the numeric substrates: RNG, FFT/spectral Poisson,
   optimizers, simplex LP and branch-and-bound ILP. *)

module R = Numerics.Rng
module V = Numerics.Vec
module M = Numerics.Matrix
module F = Numerics.Fft
module Sp = Numerics.Spectral
module Sx = Numerics.Simplex
module I = Numerics.Ilp

let checkf ?(eps = 1e-6) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let rng_tests =
  [
    Alcotest.test_case "determinism" `Quick (fun () ->
        let a = R.create 42 and b = R.create 42 in
        for _ = 1 to 100 do
          checkf "same stream" (R.float a) (R.float b)
        done);
    Alcotest.test_case "float in [0,1)" `Quick (fun () ->
        let r = R.create 7 in
        for _ = 1 to 1000 do
          let x = R.float r in
          Alcotest.(check bool) "range" true (x >= 0.0 && x < 1.0)
        done);
    Alcotest.test_case "int bounds" `Quick (fun () ->
        let r = R.create 3 in
        for _ = 1 to 1000 do
          let x = R.int r 17 in
          Alcotest.(check bool) "range" true (x >= 0 && x < 17)
        done);
    Alcotest.test_case "gaussian moments" `Quick (fun () ->
        let r = R.create 11 in
        let n = 20000 in
        let sum = ref 0.0 and sum2 = ref 0.0 in
        for _ = 1 to n do
          let g = R.gaussian r in
          sum := !sum +. g;
          sum2 := !sum2 +. (g *. g)
        done;
        let mean = !sum /. float_of_int n in
        let var = (!sum2 /. float_of_int n) -. (mean *. mean) in
        Alcotest.(check bool) "mean ~ 0" true (abs_float mean < 0.05);
        Alcotest.(check bool) "var ~ 1" true (abs_float (var -. 1.0) < 0.05));
    Alcotest.test_case "shuffle permutes" `Quick (fun () ->
        let r = R.create 5 in
        let a = Array.init 50 (fun i -> i) in
        R.shuffle r a;
        let sorted = Array.copy a in
        Array.sort compare sorted;
        Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted);
    Alcotest.test_case "split_n fan-out: distinct, uncorrelated children"
      `Quick (fun () ->
        (* the pool's seeding discipline: 1000-way fan-out from one
           master, each child must look like an independent stream *)
        let n = 1000 in
        let kids = R.split_n (R.create 2022) n in
        let firsts = Array.map R.float kids in
        let seconds = Array.map R.float kids in
        (* no seed collisions across the fan-out *)
        let tbl = Hashtbl.create n in
        Array.iter
          (fun f ->
            Alcotest.(check bool) "first draws collide" false
              (Hashtbl.mem tbl f);
            Hashtbl.add tbl f ())
          firsts;
        (* correlation helper over paired samples *)
        let corr xs ys =
          let m = float_of_int (Array.length xs) in
          let mean a = Array.fold_left ( +. ) 0.0 a /. m in
          let mx = mean xs and my = mean ys in
          let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
          Array.iteri
            (fun i x ->
              let dx = x -. mx and dy = ys.(i) -. my in
              sxy := !sxy +. (dx *. dy);
              sxx := !sxx +. (dx *. dx);
              syy := !syy +. (dy *. dy))
            xs;
          !sxy /. sqrt (!sxx *. !syy)
        in
        (* adjacent children (the streams handed to neighbouring
           parallel tasks) must not track each other *)
        let shifted = Array.init n (fun i -> firsts.((i + 1) mod n)) in
        Alcotest.(check bool) "adjacent children uncorrelated" true
          (abs_float (corr firsts shifted) < 0.1);
        (* within one child, successive draws must not track either *)
        Alcotest.(check bool) "first/second draws uncorrelated" true
          (abs_float (corr firsts seconds) < 0.1);
        (* aggregate uniformity of the fan-out's first draws *)
        let mean = Array.fold_left ( +. ) 0.0 firsts /. float_of_int n in
        Alcotest.(check bool) "mean near 0.5" true
          (abs_float (mean -. 0.5) < 0.05);
        let bins = Array.make 10 0 in
        Array.iter
          (fun f ->
            let b = min 9 (int_of_float (f *. 10.0)) in
            bins.(b) <- bins.(b) + 1)
          firsts;
        Array.iteri
          (fun b cnt ->
            Alcotest.(check bool)
              (Printf.sprintf "bin %d populated evenly" b)
              true
              (cnt > 50 && cnt < 150))
          bins;
        (* the fan-out itself is deterministic: same master seed, same
           children, left to right *)
        let again = Array.map R.float (R.split_n (R.create 2022) n) in
        Alcotest.(check bool) "reproducible" true
          (Array.for_all2 Float.equal again firsts);
        Alcotest.(check int) "split_n 0 is empty" 0
          (Array.length (R.split_n (R.create 1) 0)));
  ]

(* O(n^2) reference sums for the plan's line transforms:
   DCT-II  C(k) = sum_m x(m) cos(pi k (2m+1) / 2n),
   DCT-III y(m) = sum_k X(k) cos(pi k (2m+1) / 2n),
   DST-III y(m) = sum_k X(k) sin(pi k (2m+1) / 2n). *)
let angle n k m =
  Float.pi *. float_of_int k *. ((2.0 *. float_of_int m) +. 1.0)
  /. (2.0 *. float_of_int n)

let direct_sum f x =
  let n = Array.length x in
  Array.init n (fun out ->
      let acc = ref 0.0 in
      for i = 0 to n - 1 do
        acc := !acc +. (x.(i) *. f n out i)
      done;
      !acc)

let dct_ii_direct = direct_sum (fun n k m -> cos (angle n k m))
let dct_iii_direct = direct_sum (fun n m k -> cos (angle n k m))
let dst_iii_direct = direct_sum (fun n m k -> sin (angle n k m))

(* Each power-of-two length up to 64, through a strided in-place line
   (offset 1, stride 3) so the plan's addressing is checked too; 1e-12
   relative to the input's l1 norm, which bounds every output. *)
let check_line_transform ~name transform direct =
  let r = R.create 9 in
  List.iter
    (fun n ->
      let p = F.plan n in
      let x = Array.init n (fun _ -> R.gaussian r) in
      let buf = Array.make ((3 * n) + 1) nan in
      Array.iteri (fun m v -> buf.(1 + (3 * m)) <- v) x;
      transform p buf buf ~off:1 ~stride:3;
      let expect = direct x in
      let scale = Array.fold_left (fun a v -> a +. abs_float v) 1.0 x in
      Array.iteri
        (fun k e ->
          let got = buf.(1 + (3 * k)) in
          if not (abs_float (got -. e) <= 1e-12 *. scale) then
            Alcotest.failf "%s n=%d k=%d: plan %.17g direct %.17g" name n k
              got e)
        expect;
      Alcotest.(check bool)
        (Printf.sprintf "%s n=%d leaves other entries alone" name n)
        true
        (Array.for_all Float.is_nan
           (Array.of_list
              (List.filteri (fun i _ -> i mod 3 <> 1) (Array.to_list buf)))))
    [ 1; 2; 4; 8; 16; 32; 64 ]

(* The dense solve through basis matrices and matrix products: the
   oracle for [Spectral.solve_poisson]. *)
let dense_poisson rho =
  let nx = M.rows rho and ny = M.cols rho in
  let basis f n =
    M.init n n (fun u i ->
        f (Float.pi *. float_of_int u *. (float_of_int i +. 0.5)
           /. float_of_int n))
  in
  let bx = basis cos nx and by = basis cos ny in
  let sx = basis sin nx and sy = basis sin ny in
  let w n u = Float.pi *. float_of_int u /. float_of_int n in
  let cu u n = if u = 0 then 1.0 /. float_of_int n else 2.0 /. float_of_int n in
  let a = M.matmul (M.matmul bx rho) (M.transpose by) in
  let coef g =
    M.init nx ny (fun u v ->
        let w2 = (w nx u *. w nx u) +. (w ny v *. w ny v) in
        if w2 > 0.0 then M.get a u v *. cu u nx *. cu v ny *. g u v /. w2
        else 0.0)
  in
  let synth px py c = M.matmul (M.transpose px) (M.matmul c py) in
  ( synth bx by (coef (fun _ _ -> 1.0)),
    synth sx by (coef (fun u _ -> w nx u)),
    synth bx sy (coef (fun _ v -> w ny v)) )

let max_abs m =
  let acc = ref 0.0 in
  for i = 0 to M.rows m - 1 do
    for j = 0 to M.cols m - 1 do
      acc := Float.max !acc (abs_float (M.get m i j))
    done
  done;
  !acc

let bits_equal a b =
  let same = ref true in
  for i = 0 to M.rows a - 1 do
    for j = 0 to M.cols a - 1 do
      if Int64.bits_of_float (M.get a i j) <> Int64.bits_of_float (M.get b i j)
      then same := false
    done
  done;
  !same

let fft_tests =
  [
    Alcotest.test_case "forward/inverse roundtrip" `Quick (fun () ->
        let r = R.create 1 in
        let n = 64 in
        let re = Array.init n (fun _ -> R.gaussian r) in
        let im = Array.init n (fun _ -> R.gaussian r) in
        let re0 = Array.copy re and im0 = Array.copy im in
        F.forward re im;
        F.inverse re im;
        for i = 0 to n - 1 do
          checkf ~eps:1e-9 "re" re0.(i) re.(i);
          checkf ~eps:1e-9 "im" im0.(i) im.(i)
        done);
    Alcotest.test_case "fft of an impulse is flat" `Quick (fun () ->
        let n = 16 in
        let re = Array.make n 0.0 and im = Array.make n 0.0 in
        re.(0) <- 1.0;
        F.forward re im;
        for i = 0 to n - 1 do
          checkf "re" 1.0 re.(i);
          checkf "im" 0.0 im.(i)
        done);
    Alcotest.test_case "fft matches direct DFT" `Quick (fun () ->
        let r = R.create 2 in
        let n = 32 in
        let x = Array.init n (fun _ -> R.gaussian r) in
        let re = Array.copy x and im = Array.make n 0.0 in
        F.forward re im;
        for k = 0 to n - 1 do
          let sr = ref 0.0 and si = ref 0.0 in
          for t = 0 to n - 1 do
            let ang =
              -2.0 *. Float.pi *. float_of_int (k * t) /. float_of_int n
            in
            sr := !sr +. (x.(t) *. cos ang);
            si := !si +. (x.(t) *. sin ang)
          done;
          checkf ~eps:1e-8 "re" !sr re.(k);
          checkf ~eps:1e-8 "im" !si im.(k)
        done);
    Alcotest.test_case "fft dct matches direct dct" `Quick (fun () ->
        check_line_transform ~name:"dct-ii" F.dct_ii dct_ii_direct);
    Alcotest.test_case "plan dct-iii matches direct sum" `Quick (fun () ->
        check_line_transform ~name:"dct-iii" F.dct_iii dct_iii_direct);
    Alcotest.test_case "plan dst-iii matches direct sum" `Quick (fun () ->
        check_line_transform ~name:"dst-iii" F.dst_iii dst_iii_direct);
    Alcotest.test_case "rejects non power of two" `Quick (fun () ->
        let raised =
          try
            F.forward (Array.make 12 0.0) (Array.make 12 0.0);
            false
          with Invalid_argument _ -> true
        in
        Alcotest.(check bool) "raises" true raised);
  ]

let spectral_tests =
  [
    Alcotest.test_case "analysis/synthesis roundtrip" `Quick (fun () ->
        (* a plan needs power-of-two axes; the roundtrip itself runs
           on 16 x 8 below *)
        Alcotest.check_raises "16 x 12 rejected"
          (Invalid_argument "Spectral.create: sizes must be powers of two")
          (fun () -> ignore (Sp.create ~nx:16 ~ny:12)));
    Alcotest.test_case "analysis/synthesis roundtrip on 16 x 8" `Quick
      (fun () ->
        let nx = 16 and ny = 8 in
        let sp = Sp.create ~nx ~ny in
        let r = R.create 4 in
        let rho = M.init nx ny (fun _ _ -> R.gaussian r) in
        let a = Sp.analyze sp rho in
        (* synthesize back by evaluating the cosine series *)
        for i = 0 to nx - 1 do
          for j = 0 to ny - 1 do
            let acc = ref 0.0 in
            for u = 0 to nx - 1 do
              for v = 0 to ny - 1 do
                acc :=
                  !acc
                  +. M.get a u v
                     *. cos (Float.pi *. float_of_int u
                             *. (float_of_int i +. 0.5) /. float_of_int nx)
                     *. cos (Float.pi *. float_of_int v
                             *. (float_of_int j +. 0.5) /. float_of_int ny)
              done
            done;
            checkf ~eps:1e-7 "rho" (M.get rho i j) !acc
          done
        done);
    Alcotest.test_case "poisson: field points away from a blob" `Quick (fun () ->
        let n = 32 in
        let sp = Sp.create ~nx:n ~ny:n in
        let rho =
          M.init n n (fun i j ->
              (* gaussian blob near (8,8) *)
              let dx = float_of_int i -. 8.0 and dy = float_of_int j -. 8.0 in
              exp (-.((dx *. dx) +. (dy *. dy)) /. 8.0))
        in
        let f = Sp.solve_poisson sp rho in
        (* potential is highest at the blob centre *)
        let psi_c = M.get f.Sp.psi 8 8 and psi_far = M.get f.Sp.psi 28 28 in
        Alcotest.(check bool) "psi peak" true (psi_c > psi_far);
        (* field at a point right of the blob points right (+x) *)
        Alcotest.(check bool) "ex sign" true (M.get f.Sp.ex 14 8 > 0.0);
        (* field left of the blob points left *)
        Alcotest.(check bool) "ex sign left" true (M.get f.Sp.ex 2 8 < 0.0);
        (* and above it points up *)
        Alcotest.(check bool) "ey sign" true (M.get f.Sp.ey 8 14 > 0.0));
    Alcotest.test_case "poisson residual is small" `Quick (fun () ->
        (* check lap(psi) ~ -(rho - mean rho) on interior points using a
           5-point stencil; the DC term is excluded by construction *)
        let n = 32 in
        let sp = Sp.create ~nx:n ~ny:n in
        let r = R.create 8 in
        let rho = M.init n n (fun _ _ -> R.float r) in
        let mean =
          let s = ref 0.0 in
          for i = 0 to n - 1 do
            for j = 0 to n - 1 do
              s := !s +. M.get rho i j
            done
          done;
          !s /. float_of_int (n * n)
        in
        let f = Sp.solve_poisson sp rho in
        (* The spectral solve is exact for the cosine series; the finite
           difference residual is only O(h^2)-accurate for smooth fields,
           so test on a smoothed density instead of white noise. *)
        ignore f;
        let rho2 =
          M.init n n (fun i j ->
              cos (Float.pi *. 2.0 *. (float_of_int i +. 0.5) /. float_of_int n)
              *. cos
                   (Float.pi *. 3.0 *. (float_of_int j +. 0.5) /. float_of_int n)
              +. mean)
        in
        let f2 = Sp.solve_poisson sp rho2 in
        let w2 =
          ((Float.pi *. 2.0 /. float_of_int n) ** 2.0)
          +. ((Float.pi *. 3.0 /. float_of_int n) ** 2.0)
        in
        (* psi should equal (rho2 - mean)/w2 for this single mode *)
        for i = 5 to 10 do
          for j = 5 to 10 do
            checkf ~eps:1e-6 "psi mode"
              ((M.get rho2 i j -. mean) /. w2)
              (M.get f2.Sp.psi i j)
          done
        done);
    Alcotest.test_case "poisson matches the dense basis-matrix solve" `Quick
      (fun () ->
        List.iter
          (fun (nx, ny) ->
            let r = R.create (nx + ny) in
            let rho = M.init nx ny (fun _ _ -> R.float r) in
            let f = Sp.solve_poisson (Sp.create ~nx ~ny) rho in
            let psi, ex, ey = dense_poisson rho in
            List.iter
              (fun (name, dense, fast) ->
                let tol = 1e-12 *. max_abs dense in
                for i = 0 to nx - 1 do
                  for j = 0 to ny - 1 do
                    let d = M.get dense i j and g = M.get fast i j in
                    if not (abs_float (g -. d) <= tol) then
                      Alcotest.failf "%dx%d %s(%d,%d): plan %.17g dense %.17g"
                        nx ny name i j g d
                  done
                done)
              [
                ("psi", psi, f.Sp.psi);
                ("ex", ex, f.Sp.ex);
                ("ey", ey, f.Sp.ey);
              ])
          [ (32, 32); (64, 64); (16, 8) ]);
    Alcotest.test_case "repeated solves on one plan are bit-identical" `Quick
      (fun () ->
        let nx = 32 and ny = 16 in
        let sp = Sp.create ~nx ~ny in
        let r = R.create 12 in
        let rho = M.init nx ny (fun _ _ -> R.float r) in
        let other = M.init nx ny (fun _ _ -> R.gaussian r) in
        let snapshot f = (M.copy f.Sp.psi, M.copy f.Sp.ex, M.copy f.Sp.ey) in
        let same (p0, x0, y0) f =
          bits_equal p0 f.Sp.psi && bits_equal x0 f.Sp.ex
          && bits_equal y0 f.Sp.ey
        in
        let first = snapshot (Sp.solve_poisson sp rho) in
        Alcotest.(check bool) "consecutive" true
          (same first (Sp.solve_poisson sp rho));
        ignore (Sp.solve_poisson sp other);
        Alcotest.(check bool) "after another density" true
          (same first (Sp.solve_poisson sp rho)));
    Alcotest.test_case "solve_poisson allocates nothing once planned" `Quick
      (fun () ->
        let sp = Sp.create ~nx:32 ~ny:32 in
        let rho = M.init 32 32 (fun i j -> float_of_int ((i * 7) + j)) in
        ignore (Sp.solve_poisson sp rho);
        let before = Gc.minor_words () in
        for _ = 1 to 10 do
          ignore (Sys.opaque_identity (Sp.solve_poisson sp rho))
        done;
        let words = Gc.minor_words () -. before in
        (* the only allocation is the boxed float [before] *)
        if words > 16.0 then
          Alcotest.failf "10 solves allocated %.0f minor words" words);
    Alcotest.test_case "solve_field's field is solve_poisson's, bit for bit"
      `Quick (fun () ->
        let nx = 16 and ny = 32 in
        let r = R.create 21 in
        let rho = M.init nx ny (fun _ _ -> R.float r) in
        let full = Sp.solve_poisson (Sp.create ~nx ~ny) rho in
        let sp = Sp.create ~nx ~ny in
        let xi = Sp.solve_field sp rho in
        Alcotest.(check bool) "ex" true (bits_equal full.Sp.ex xi.Sp.xi_x);
        Alcotest.(check bool) "ey" true (bits_equal full.Sp.ey xi.Sp.xi_y);
        (* psi on request, after the field-only solve *)
        Alcotest.(check bool) "psi" true (bits_equal full.Sp.psi (Sp.potential sp));
        Alcotest.(check bool) "psi again" true
          (bits_equal full.Sp.psi (Sp.potential sp));
        let before = Gc.minor_words () in
        for _ = 1 to 10 do
          ignore (Sys.opaque_identity (Sp.solve_field sp rho))
        done;
        let words = Gc.minor_words () -. before in
        if words > 16.0 then
          Alcotest.failf "10 field solves allocated %.0f minor words" words);
  ]

let opt_tests =
  [
    Alcotest.test_case "nesterov minimizes a quadratic" `Quick (fun () ->
        (* f(x) = 1/2 sum d_i (x_i - t_i)^2, anisotropic *)
        let d = [| 1.0; 10.0; 0.5; 4.0 |] in
        let t = [| 1.0; -2.0; 3.0; 0.25 |] in
        let grad x g =
          Array.iteri (fun i _ -> g.(i) <- d.(i) *. (x.(i) -. t.(i))) x
        in
        let x =
          Numerics.Nesterov.minimize ~max_iter:500 ~gtol:1e-10
            ~x0:(Array.make 4 0.0) ~grad ()
        in
        Array.iteri (fun i ti -> checkf ~eps:1e-4 "xi" ti x.(i)) t);
    Alcotest.test_case "nesterov beats plain descent iterations" `Quick
      (fun () ->
        (* ill-conditioned quadratic: nesterov should converge fast *)
        let n = 20 in
        let d = Array.init n (fun i -> 1.0 +. (float_of_int i *. 10.0)) in
        let grad x g = Array.iteri (fun i _ -> g.(i) <- d.(i) *. x.(i)) x in
        let st =
          Numerics.Nesterov.create ~x0:(Array.make n 1.0) ~grad ()
        in
        let it = ref 0 in
        while Numerics.Vec.norm (Numerics.Nesterov.gradient st) > 1e-6
              && !it < 2000 do
          Numerics.Nesterov.step st;
          incr it
        done;
        Alcotest.(check bool) "converged reasonably fast" true (!it < 1500));
    Alcotest.test_case "nesterov steps allocate no arrays" `Quick (fun () ->
        (* a gradient that allocates nothing; the dimension keeps every
           array small enough for the minor heap, which minor_words
           counts exactly, and one array per step would still dominate
           the count *)
        let n = 200 in
        let grad x g =
          for i = 0 to n - 1 do
            g.(i) <- (1.0 +. float_of_int (i mod 7)) *. x.(i)
          done
        in
        let st = Numerics.Nesterov.create ~x0:(Array.make n 1.0) ~grad () in
        (* the caller writes into the current iterate between steps, as
           Global_place's clamp does *)
        let x = Numerics.Nesterov.x st in
        x.(0) <- 0.5;
        let before = Gc.minor_words () in
        for _ = 1 to 20 do
          Numerics.Nesterov.step st
        done;
        let words = Gc.minor_words () -. before in
        if words > 2000.0 then
          Alcotest.failf "20 steps allocated %.0f minor words" words;
        Alcotest.(check int) "iterations" 20 (Numerics.Nesterov.iteration st));
    Alcotest.test_case "cg iterations allocate no arrays" `Quick (fun () ->
        (* only the callback's result pair and its boxed value may be
           allocated per evaluation; n as in the Nesterov case *)
        let n = 200 in
        let g = Array.make n 0.0 in
        let f x =
          let v = ref 0.0 in
          for i = 0 to n - 1 do
            let d = 1.0 +. float_of_int (i mod 11) in
            v := !v +. (0.5 *. d *. x.(i) *. x.(i));
            g.(i) <- d *. x.(i)
          done;
          (!v, g)
        in
        let run max_iter =
          let before = Gc.minor_words () in
          let _, st =
            Numerics.Cg.minimize ~max_iter ~gtol:0.0 ~f
              ~x0:(Array.init n (fun i -> float_of_int (i mod 5))) ()
          in
          (Gc.minor_words () -. before, st.Numerics.Cg.f_evals)
        in
        let w1, e1 = run 5 and w2, e2 = run 25 in
        Alcotest.(check bool) "more evaluations" true (e2 > e1);
        let per_eval = (w2 -. w1) /. float_of_int (e2 - e1) in
        if per_eval > 64.0 then
          Alcotest.failf "%.0f minor words per evaluation" per_eval);
    Alcotest.test_case "cg minimizes rosenbrock" `Quick (fun () ->
        let f x =
          let a = 1.0 -. x.(0)
          and b = x.(1) -. (x.(0) *. x.(0)) in
          let v = (a *. a) +. (100.0 *. b *. b) in
          let g =
            [| (-2.0 *. a) -. (400.0 *. x.(0) *. b); 200.0 *. b |]
          in
          (v, g)
        in
        let x, stats =
          Numerics.Cg.minimize ~max_iter:5000 ~gtol:1e-8 ~f
            ~x0:[| -1.2; 1.0 |] ()
        in
        ignore stats;
        checkf ~eps:1e-3 "x0" 1.0 x.(0);
        checkf ~eps:1e-3 "x1" 1.0 x.(1));
    Alcotest.test_case "adam minimizes a quadratic" `Quick (fun () ->
        let params = [| 5.0; -3.0 |] in
        let opt = Numerics.Adam.create ~lr:0.1 2 in
        for _ = 1 to 500 do
          let g = [| params.(0) -. 1.0; params.(1) +. 2.0 |] in
          Numerics.Adam.step opt ~params ~grads:g
        done;
        checkf ~eps:1e-2 "p0" 1.0 params.(0);
        checkf ~eps:1e-2 "p1" (-2.0) params.(1));
  ]

(* [Sx.solve] against a fresh collector, with the pivot count it
   published (phase 1, drive-out and phase 2 together) *)
let solve_counting ?max_iter p =
  Telemetry.reset ();
  let r = Sx.solve ?max_iter p in
  (r, Telemetry.Counter.value (Telemetry.Counter.make "simplex.pivots"))

let simplex_tests =
  [
    Alcotest.test_case "textbook maximization" `Quick (fun () ->
        (* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18 -> (2,6), 36 *)
        let p =
          {
            Sx.n_vars = 2;
            objective = [| -3.0; -5.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 4.0 };
                { Sx.coeffs = [ (1, 2.0) ]; op = Sx.Le; rhs = 12.0 };
                { Sx.coeffs = [ (0, 3.0); (1, 2.0) ]; op = Sx.Le; rhs = 18.0 };
              ];
          }
        in
        match solve_counting p with
        | Sx.Optimal s, pivots ->
            checkf "obj" (-36.0) s.Sx.objective_value;
            checkf "x" 2.0 s.Sx.x.(0);
            checkf "y" 6.0 s.Sx.x.(1);
            (* y enters on row 2, then x on row 3; no artificials *)
            Alcotest.(check int) "simplex.pivots" 2 pivots
        | r, _ -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "equality and >= constraints (two-phase)" `Quick
      (fun () ->
        (* min x + 2y st x + y = 10; x >= 3 -> (10,0)? obj x+2y minimized:
           y = 10 - x, obj = x + 20 - 2x = 20 - x, maximize x -> x = 10, y=0.
           With x >= 3 satisfied. obj = 10. *)
        let p =
          {
            Sx.n_vars = 2;
            objective = [| 1.0; 2.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Sx.Eq; rhs = 10.0 };
                { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Ge; rhs = 3.0 };
              ];
          }
        in
        match Sx.solve p with
        | Sx.Optimal s ->
            checkf "obj" 10.0 s.Sx.objective_value;
            checkf "x" 10.0 s.Sx.x.(0)
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "infeasible detected" `Quick (fun () ->
        let p =
          {
            Sx.n_vars = 1;
            objective = [| 1.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Ge; rhs = 5.0 };
                { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 3.0 };
              ];
          }
        in
        match Sx.solve p with
        | Sx.Infeasible -> ()
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "unbounded detected" `Quick (fun () ->
        let p =
          {
            Sx.n_vars = 2;
            objective = [| -1.0; 0.0 |];
            constraints =
              [ { Sx.coeffs = [ (1, 1.0) ]; op = Sx.Le; rhs = 1.0 } ];
          }
        in
        match Sx.solve p with
        | Sx.Unbounded -> ()
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "negative rhs normalisation" `Quick (fun () ->
        (* min x st -x <= -4  (i.e. x >= 4) *)
        let p =
          {
            Sx.n_vars = 1;
            objective = [| 1.0 |];
            constraints =
              [ { Sx.coeffs = [ (0, -1.0) ]; op = Sx.Le; rhs = -4.0 } ];
          }
        in
        match Sx.solve p with
        | Sx.Optimal s -> checkf "x" 4.0 s.Sx.x.(0)
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "degenerate problem solves" `Quick (fun () ->
        (* multiple redundant constraints through one vertex *)
        let p =
          {
            Sx.n_vars = 2;
            objective = [| -1.0; -1.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 1.0); (1, 1.0) ]; op = Sx.Le; rhs = 2.0 };
                { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 1.0 };
                { Sx.coeffs = [ (1, 1.0) ]; op = Sx.Le; rhs = 1.0 };
                { Sx.coeffs = [ (0, 2.0); (1, 2.0) ]; op = Sx.Le; rhs = 4.0 };
              ];
          }
        in
        match Sx.solve p with
        | Sx.Optimal s -> checkf "obj" (-2.0) s.Sx.objective_value
        | r -> Alcotest.failf "unexpected %a" Sx.pp_result r);
    Alcotest.test_case "Beale cycling example terminates" `Quick (fun () ->
        (* Beale's classic degenerate LP: under Dantzig's entering rule
           with naive ratio tie-breaking, the textbook simplex cycles
           through six bases forever at the origin. The solver must
           still terminate and reach the optimum -0.05 at
           (0.04, 0, 1, 0). *)
        let p =
          {
            Sx.n_vars = 4;
            objective = [| -0.75; 150.0; -0.02; 6.0 |];
            constraints =
              [
                { Sx.coeffs = [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ];
                  op = Sx.Le; rhs = 0.0 };
                { Sx.coeffs = [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ];
                  op = Sx.Le; rhs = 0.0 };
                { Sx.coeffs = [ (2, 1.0) ]; op = Sx.Le; rhs = 1.0 };
              ];
          }
        in
        match solve_counting ~max_iter:10_000 p with
        | Sx.Optimal s, pivots ->
            checkf "obj" (-0.05) s.Sx.objective_value;
            checkf "x1" 0.04 s.Sx.x.(0);
            checkf "x2" 0.0 s.Sx.x.(1);
            checkf "x3" 1.0 s.Sx.x.(2);
            checkf "x4" 0.0 s.Sx.x.(3);
            (* 5 (m + ncols) = 50 cycling Dantzig pivots, then Bland's
               rule reaches the optimum in 4 *)
            Alcotest.(check int) "simplex.pivots" 54 pivots
        | r, _ -> Alcotest.failf "unexpected %a" Sx.pp_result r);
  ]

let ilp_tests =
  [
    Alcotest.test_case "knapsack-style binary ILP" `Quick (fun () ->
        (* max 8a + 11b + 6c + 4d st 5a + 7b + 4c + 3d <= 14, binaries.
           optimum: a,b,c = 1 -> 25 (weight 16 > 14? 5+7+4=16 no!)
           feasible best: b,c,d = 11+6+4=21 weight 14 -> optimal 21 *)
        let p =
          {
            I.base =
              {
                Sx.n_vars = 4;
                objective = [| -8.0; -11.0; -6.0; -4.0 |];
                constraints =
                  [
                    {
                      Sx.coeffs = [ (0, 5.0); (1, 7.0); (2, 4.0); (3, 3.0) ];
                      op = Sx.Le;
                      rhs = 14.0;
                    };
                  ];
              };
            kinds = Array.make 4 I.Binary;
          }
        in
        let r = I.solve p in
        Alcotest.(check bool) "optimal" true (r.I.status = I.Ilp_optimal);
        checkf "obj" (-21.0) r.I.objective_value;
        checkf "a" 0.0 r.I.x.(0);
        checkf "b" 1.0 r.I.x.(1));
    Alcotest.test_case "integer rounding gap" `Quick (fun () ->
        (* max x + y st 2x + 3y <= 12, 3x + 2y <= 12, integers ->
           LP opt (2.4,2.4)=4.8; ILP opt 4 (e.g. 2,2 or 3,1 or 0,4) *)
        let p =
          {
            I.base =
              {
                Sx.n_vars = 2;
                objective = [| -1.0; -1.0 |];
                constraints =
                  [
                    { Sx.coeffs = [ (0, 2.0); (1, 3.0) ]; op = Sx.Le; rhs = 12.0 };
                    { Sx.coeffs = [ (0, 3.0); (1, 2.0) ]; op = Sx.Le; rhs = 12.0 };
                  ];
              };
            kinds = [| I.Integer; I.Integer |];
          }
        in
        let r = I.solve p in
        Alcotest.(check bool) "optimal" true (r.I.status = I.Ilp_optimal);
        checkf "obj" (-4.0) r.I.objective_value);
    Alcotest.test_case "infeasible ILP" `Quick (fun () ->
        (* 0.5 <= x <= 0.7 has no integer point; force via constraints *)
        let p =
          {
            I.base =
              {
                Sx.n_vars = 1;
                objective = [| 1.0 |];
                constraints =
                  [
                    { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Ge; rhs = 0.5 };
                    { Sx.coeffs = [ (0, 1.0) ]; op = Sx.Le; rhs = 0.7 };
                  ];
              };
            kinds = [| I.Integer |];
          }
        in
        let r = I.solve p in
        Alcotest.(check bool) "infeasible" true (r.I.status = I.Ilp_infeasible));
    Alcotest.test_case "continuous vars stay continuous" `Quick (fun () ->
        (* min -x - 10 b st x + 4b <= 3.5; x cont, b binary.
           b=0 -> x=3.5 obj -3.5 ; b=1 -> x <= -0.5 infeasible (x>=0)?
           x + 4 <= 3.5 -> x <= -0.5 < 0 infeasible. So b=0, x=3.5. *)
        let p =
          {
            I.base =
              {
                Sx.n_vars = 2;
                objective = [| -1.0; -10.0 |];
                constraints =
                  [ { Sx.coeffs = [ (0, 1.0); (1, 4.0) ]; op = Sx.Le; rhs = 3.5 } ];
              };
            kinds = [| I.Continuous; I.Binary |];
          }
        in
        let r = I.solve p in
        Alcotest.(check bool) "optimal" true (r.I.status = I.Ilp_optimal);
        checkf "x" 3.5 r.I.x.(0);
        checkf "b" 0.0 r.I.x.(1));
  ]

(* Property: a simplex optimum satisfies every row under its own
   operator, and x >= 0. Rows of all three operators with signed
   right-hand sides over up to 8 variables make phase 1 do most of the
   pivots, as in detailed placement. Half the LPs plant a nonnegative
   point that satisfies every row, and half carry a bounding row, so
   many reach an optimum. *)
let prop_simplex_feasible =
  let gen =
    QCheck2.Gen.(
      int_range 1 8 >>= fun n ->
      let coef = float_range (-3.0) 3.0 in
      let row =
        quad (list_repeat n (opt coef)) (oneofl [ Sx.Le; Sx.Ge; Sx.Eq ])
          (float_range 0.0 2.0) (float_range (-10.0) 10.0)
      in
      quad (array_repeat n coef)
        (opt (array_repeat n (float_range 0.0 3.0)))
        (list_size (int_range 1 8) row) bool
      |> map (fun (objective, x0, rows, bounded) ->
             let constr (cs, op, slack, free) =
               let coeffs =
                 List.filter_map Fun.id
                   (List.mapi (fun j c -> Option.map (fun a -> (j, a)) c) cs)
               in
               let rhs =
                 match x0 with
                 | None -> free
                 | Some x0 -> (
                     let lhs =
                       List.fold_left
                         (fun acc (j, a) -> acc +. (a *. x0.(j)))
                         0.0 coeffs
                     in
                     match op with
                     | Sx.Le -> lhs +. slack
                     | Sx.Ge -> lhs -. slack
                     | Sx.Eq -> lhs)
               in
               { Sx.coeffs; op; rhs }
             in
             let bound =
               { Sx.coeffs = List.init n (fun j -> (j, 1.0)); op = Sx.Le;
                 rhs = Float.of_int (4 * n) }
             in
             let constraints = List.map constr rows in
             { Sx.n_vars = n; objective;
               constraints = (if bounded then bound :: constraints else constraints) }))
  in
  QCheck2.Test.make ~name:"simplex optimum is feasible" ~count:500 gen
    (fun p ->
      match Sx.solve p with
      | Sx.Optimal s ->
          List.for_all
            (fun c ->
              let lhs =
                List.fold_left
                  (fun acc (j, a) -> acc +. (a *. s.Sx.x.(j)))
                  0.0 c.Sx.coeffs
              in
              match c.Sx.op with
              | Sx.Le -> lhs <= c.Sx.rhs +. 1e-6
              | Sx.Ge -> lhs >= c.Sx.rhs -. 1e-6
              | Sx.Eq -> abs_float (lhs -. c.Sx.rhs) <= 1e-6)
            p.Sx.constraints
          && Array.for_all (fun v -> v >= -1e-9) s.Sx.x
      | Sx.Unbounded | Sx.Infeasible | Sx.Iter_limit -> true)

let prop_matrix_matvec_t =
  QCheck2.Test.make ~name:"matvec_t agrees with transpose matvec" ~count:100
    QCheck2.Gen.(
      map
        (fun seed ->
          let r = R.create seed in
          let m = 3 + R.int r 6 and n = 2 + R.int r 5 in
          (seed, m, n))
        (int_range 0 10000))
    (fun (seed, rows, cols) ->
      let r = R.create seed in
      let a = M.init rows cols (fun _ _ -> R.gaussian r) in
      let x = Array.init rows (fun _ -> R.gaussian r) in
      let y1 = Array.make cols 0.0 and y2 = Array.make cols 0.0 in
      M.matvec_t a x y1;
      M.matvec (M.transpose a) x y2;
      Array.for_all2 (fun u v -> abs_float (u -. v) < 1e-9) y1 y2)

let prop_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_simplex_feasible; prop_matrix_matvec_t ]

let suites =
  [
    ("numerics.rng", rng_tests);
    ("numerics.fft", fft_tests);
    ("numerics.spectral", spectral_tests);
    ("numerics.optimizers", opt_tests);
    ("numerics.simplex", simplex_tests);
    ("numerics.ilp", ilp_tests);
    ("numerics.properties", prop_tests);
  ]
