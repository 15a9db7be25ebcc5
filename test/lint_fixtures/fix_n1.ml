(* Intentional N1 violations: exact float equality as a termination
   test. Both idioms "work" until a different rounding mode, FMA
   contraction or summation order makes the iterates oscillate one ulp
   apart forever. *)

(* while-loop exit on bit-for-bit equality of computed floats *)
let fixed_point () =
  let x = ref 1.0 and prev = ref 0.0 in
  while not (Float.equal !x !prev) do
    prev := !x;
    x := (0.5 *. !x) +. 0.25
  done;
  !x
[@@placer_lint.numeric]

(* recursive bisection terminating on an exact comparison *)
let rec bisect lo hi =
  let mid = 0.5 *. (lo +. hi) in
  if Float.compare mid lo = 0 then mid else bisect mid hi
[@@placer_lint.numeric]

(* [<>] as a while-loop exit (at float it also trips F1) *)
let until_unchanged () =
  let x = ref 2.0 and prev = ref 0.0 in
  while !x <> !prev do
    prev := !x;
    x := (0.5 *. !x) +. 1.0
  done;
  !x
[@@placer_lint.numeric]

(* comparing two constants tests nothing computed: no N1 *)
let bounded_steps () =
  let i = ref 0 in
  while Float.equal 0.5 0.5 && !i < 3 do
    incr i
  done;
  !i
[@@placer_lint.numeric]

(* A user-defined [=] that compares within an epsilon is not exact
   float equality, whether bound locally or at module level: no N1. *)
let converge_local () =
  let ( = ) a b = Float.abs (a -. b) < 1e-9 in
  let x = ref 1.0 and prev = ref 0.0 in
  while not (!x = !prev) do
    prev := !x;
    x := (0.5 *. !x) +. 0.25
  done;
  !x
[@@placer_lint.numeric]

(* last in the file: it shadows [=] for everything below it *)
let ( = ) a b = Float.abs (a -. b) < 1e-9

let converge_module () =
  let x = ref 1.0 and prev = ref 0.0 in
  while not (!x = !prev) do
    prev := !x;
    x := (0.5 *. !x) +. 0.25
  done;
  !x
[@@placer_lint.numeric]
