(* Cross-cutting property tests: smoothing bounds, gradient structure,
   LP/ILP relationships, and placer invariants on randomised inputs. *)

module Q = QCheck2
module Sx = Numerics.Simplex
module I = Numerics.Ilp

let coords_gen k =
  Q.Gen.(array_size (pure k) (float_range (-20.0) 20.0))

let prop_wa_bounds =
  Q.Test.make ~name:"WA span is a lower bound of the exact span" ~count:300
    Q.Gen.(pair (int_range 2 8) (float_range 0.1 3.0))
    (fun (k, gamma) ->
      let rng = Numerics.Rng.create (k * 1000 + int_of_float (gamma *. 97.0)) in
      let coords =
        Array.init k (fun _ -> Numerics.Rng.uniform rng ~lo:(-20.0) ~hi:20.0)
      in
      let exact =
        Array.fold_left Float.max neg_infinity coords
        -. Array.fold_left Float.min infinity coords
      in
      let d = Array.make k 0.0 in
      let wa = Wirelength.Wa.span_grad ~gamma ~coords ~scale:1.0 ~dcoef:d in
      wa <= exact +. 1e-9 && wa >= 0.0)

let prop_lse_bounds =
  Q.Test.make ~name:"LSE span is an upper bound of the exact span" ~count:300
    Q.Gen.(pair (int_range 2 8) (float_range 0.1 3.0))
    (fun (k, gamma) ->
      let rng = Numerics.Rng.create (k * 991 + int_of_float (gamma *. 53.0)) in
      let coords =
        Array.init k (fun _ -> Numerics.Rng.uniform rng ~lo:(-20.0) ~hi:20.0)
      in
      let exact =
        Array.fold_left Float.max neg_infinity coords
        -. Array.fold_left Float.min infinity coords
      in
      let d = Array.make k 0.0 in
      let lse = Wirelength.Lse.span_grad ~gamma ~coords ~scale:1.0 ~dcoef:d in
      lse >= exact -. 1e-9)

(* Translation invariance of a span implies its gradient sums to 0. *)
let prop_span_grad_sums_zero =
  Q.Test.make ~name:"span gradients sum to zero" ~count:300
    Q.Gen.(int_range 2 9)
    (fun k ->
      let rng = Numerics.Rng.create (k * 7919) in
      let coords =
        Array.init k (fun _ -> Numerics.Rng.uniform rng ~lo:(-5.0) ~hi:5.0)
      in
      let d1 = Array.make k 0.0 and d2 = Array.make k 0.0 in
      ignore (Wirelength.Wa.span_grad ~gamma:0.7 ~coords ~scale:1.0 ~dcoef:d1);
      ignore (Wirelength.Lse.span_grad ~gamma:0.7 ~coords ~scale:1.0 ~dcoef:d2);
      let s a = Array.fold_left ( +. ) 0.0 a in
      abs_float (s d1) < 1e-9 && abs_float (s d2) < 1e-9)

(* The ILP optimum can never beat its LP relaxation. *)
let prop_ilp_weaker_than_lp =
  Q.Test.make ~name:"ILP objective >= LP relaxation objective" ~count:150
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Numerics.Rng.create seed in
      let n = 2 + Numerics.Rng.int rng 3 in
      let m = 2 + Numerics.Rng.int rng 4 in
      let objective =
        Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:(-2.0) ~hi:2.0)
      in
      let constraints =
        List.init m (fun _ ->
            {
              Sx.coeffs =
                List.init n (fun j ->
                    (j, Numerics.Rng.uniform rng ~lo:(-1.0) ~hi:2.0));
              op = Sx.Le;
              rhs = Numerics.Rng.uniform rng ~lo:1.0 ~hi:8.0;
            })
      in
      let base = { Sx.n_vars = n; objective; constraints } in
      match Sx.solve base with
      | Sx.Optimal lp ->
          let r = I.solve { I.base; kinds = Array.make n I.Integer } in
          (match r.I.status with
          | I.Ilp_optimal | I.Ilp_feasible ->
              r.I.objective_value >= lp.Sx.objective_value -. 1e-6
          | I.Ilp_infeasible -> true (* 0 is feasible: cannot happen *)
          | I.Ilp_unbounded -> true)
      | Sx.Unbounded | Sx.Infeasible | Sx.Iter_limit -> true)

(* ILP solutions respect integrality. *)
let prop_ilp_integrality =
  Q.Test.make ~name:"ILP solutions are integral" ~count:150
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Numerics.Rng.create (seed + 31337) in
      let n = 2 + Numerics.Rng.int rng 3 in
      let objective = Array.init n (fun _ -> -1.0 -. Numerics.Rng.float rng) in
      let constraints =
        List.init (n + 1) (fun _ ->
            {
              Sx.coeffs =
                List.init n (fun j -> (j, 0.3 +. Numerics.Rng.float rng));
              op = Sx.Le;
              rhs = 2.0 +. (4.0 *. Numerics.Rng.float rng);
            })
      in
      let r =
        I.solve
          { I.base = { Sx.n_vars = n; objective; constraints };
            kinds = Array.make n I.Integer }
      in
      match r.I.status with
      | I.Ilp_optimal | I.Ilp_feasible ->
          Array.for_all
            (fun v -> abs_float (v -. Float.round v) < 1e-5)
            r.I.x
      | I.Ilp_infeasible | I.Ilp_unbounded -> true)

(* Random legal placements of the fixture evaluate consistently:
   hpwl via netview == hpwl via layout; steiner <= mst per net. *)
let prop_hpwl_consistency =
  Q.Test.make ~name:"netview and layout HPWL agree on random placements"
    ~count:200
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let c = Fixtures.diff_stage () in
      let rng = Numerics.Rng.create seed in
      let n = Netlist.Circuit.n_devices c in
      let xs = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:0.0 ~hi:15.0) in
      let ys = Array.init n (fun _ -> Numerics.Rng.uniform rng ~lo:0.0 ~hi:15.0) in
      let l = Netlist.Layout.create c in
      Array.iteri (fun i x -> Netlist.Layout.set l i ~x ~y:ys.(i)) xs;
      let nv = Wirelength.Netview.of_circuit c in
      abs_float (Netlist.Layout.hpwl l -. Wirelength.Netview.hpwl nv ~xs ~ys)
      < 1e-9)

(* The island realisation used by SA and the dataset generator is
   always overlap-free and symmetric, for any sequence pair. *)
let prop_island_packing_legal =
  Q.Test.make ~name:"random island packings are legal" ~count:60
    Q.Gen.(int_range 0 100000)
    (fun seed ->
      let c = Circuits.Testcases.get_exn "CC-OTA" in
      let rng = Numerics.Rng.create seed in
      let islands = Array.of_list (Annealing.Island.decompose c) in
      let sp = Annealing.Seqpair.random rng (Array.length islands) in
      let widths = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.w) islands in
      let heights = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.h) islands in
      let xs, ys = Annealing.Seqpair.pack sp ~widths ~heights in
      let l = Netlist.Layout.create c in
      Array.iteri
        (fun b (isl : Annealing.Island.t) ->
          Array.iteri
            (fun i d ->
              Netlist.Layout.set l d
                ~x:(xs.(b) +. isl.Annealing.Island.dx.(i))
                ~y:(ys.(b) +. isl.Annealing.Island.dy.(i));
              Netlist.Layout.set_orient l d isl.Annealing.Island.orient.(i))
            isl.Annealing.Island.devs)
        islands;
      Netlist.Layout.total_overlap l < 1e-6
      && (match Netlist.Checks.symmetry_violations l with
         | [] -> true
         | _ -> false))

(* FOM is monotone under uniform spreading (all metrics can only get
   worse when every wire gets longer and the area grows). *)
let prop_fom_monotone_spread =
  Q.Test.make ~name:"FOM does not improve under uniform spreading" ~count:25
    Q.Gen.(pair (int_range 0 10000) (float_range 1.3 2.5))
    (fun (seed, factor) ->
      let c = Circuits.Testcases.get_exn "CC-OTA" in
      let rng = Numerics.Rng.create seed in
      let islands = Array.of_list (Annealing.Island.decompose c) in
      let sp = Annealing.Seqpair.random rng (Array.length islands) in
      let widths = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.w) islands in
      let heights = Array.map (fun (i : Annealing.Island.t) -> i.Annealing.Island.h) islands in
      let xs, ys = Annealing.Seqpair.pack sp ~widths ~heights in
      let l = Netlist.Layout.create c in
      Array.iteri
        (fun b (isl : Annealing.Island.t) ->
          Array.iteri
            (fun i d ->
              Netlist.Layout.set l d
                ~x:(xs.(b) +. isl.Annealing.Island.dx.(i))
                ~y:(ys.(b) +. isl.Annealing.Island.dy.(i)))
            isl.Annealing.Island.devs)
        islands;
      let f1 = Perfsim.Fom.fom l in
      let l2 = Netlist.Layout.copy l in
      for i = 0 to Netlist.Layout.n_devices l2 - 1 do
        Netlist.Layout.set l2 i
          ~x:(factor *. l2.Netlist.Layout.xs.(i))
          ~y:(factor *. l2.Netlist.Layout.ys.(i))
      done;
      Perfsim.Fom.fom l2 <= f1 +. 1e-9)

let suites =
  [
    ( "properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_wa_bounds; prop_lse_bounds; prop_span_grad_sums_zero;
          prop_ilp_weaker_than_lp; prop_ilp_integrality;
          prop_hpwl_consistency; prop_island_packing_legal;
          prop_fom_monotone_spread ] );
  ]
