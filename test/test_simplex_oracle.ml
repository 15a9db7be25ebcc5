(* Oracle for [Numerics.Simplex]: a test-local copy of the dense
   two-phase tableau the solver used before its pivot eliminated over
   the pivot row's nonzero columns only. Both must take the same
   pivots, so every result must agree bit for bit: the same
   constructor, and [x] and the objective equal after [+. 0.0] (a
   skipped update [r -. f *. 0.0] may turn a [-0.0] cell into [+0.0],
   and nothing else). Two corpora: seeded random LPs with all three
   row operators and signed right-hand sides, and the real
   detailed-placement axis LPs of the ten paper circuits. *)

module Sx = Numerics.Simplex
module R = Numerics.Rng
module DF = Place_common.Dp_flow

(* ----- the dense oracle: every column of every touched row ----- *)
module Dense = struct
  let eps = 1e-9

  type tableau = {
    m : int;
    ncols : int;
    t : float array array;
    z : float array;
    basis : int array;
    art_start : int;
  }

  let build (p : Sx.problem) =
    let m = List.length p.constraints in
    let rows =
      Array.map
        (fun (r : Sx.constr) ->
          if r.rhs < 0.0 then
            {
              Sx.coeffs = List.map (fun (j, a) -> (j, -.a)) r.coeffs;
              op = (match r.op with Sx.Le -> Sx.Ge | Ge -> Le | Eq -> Eq);
              rhs = -.r.rhs;
            }
          else r)
        (Array.of_list p.constraints)
    in
    let count f = Array.fold_left (fun acc r -> if f r then acc + 1 else acc) 0 rows in
    let n_slack = count (fun r -> r.Sx.op <> Sx.Eq) in
    let n_art = count (fun r -> r.Sx.op <> Sx.Le) in
    let art_start = p.n_vars + n_slack in
    let ncols = art_start + n_art in
    let t = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
    let basis = Array.make m (-1) in
    let slack = ref p.n_vars and art = ref art_start in
    Array.iteri
      (fun i (r : Sx.constr) ->
        List.iter (fun (j, a) -> t.(i).(j) <- t.(i).(j) +. a) r.coeffs;
        t.(i).(ncols) <- r.rhs;
        match r.op with
        | Sx.Le ->
            t.(i).(!slack) <- 1.0;
            basis.(i) <- !slack;
            incr slack
        | Sx.Ge ->
            t.(i).(!slack) <- -1.0;
            incr slack;
            t.(i).(!art) <- 1.0;
            basis.(i) <- !art;
            incr art
        | Sx.Eq ->
            t.(i).(!art) <- 1.0;
            basis.(i) <- !art;
            incr art)
      rows;
    { m; ncols; t; z = Array.make (ncols + 1) 0.0; basis; art_start }

  let price tab c =
    Array.fill tab.z 0 (tab.ncols + 1) 0.0;
    Array.blit c 0 tab.z 0 (Array.length c);
    for i = 0 to tab.m - 1 do
      let cb = if tab.basis.(i) < Array.length c then c.(tab.basis.(i)) else 0.0 in
      if not (Float.equal cb 0.0) then
        for j = 0 to tab.ncols do
          tab.z.(j) <- tab.z.(j) -. (cb *. tab.t.(i).(j))
        done
    done

  let pivot tab ~row ~col =
    let pr = tab.t.(row) in
    let inv = 1.0 /. pr.(col) in
    for j = 0 to tab.ncols do
      pr.(j) <- pr.(j) *. inv
    done;
    let eliminate r =
      let f = r.(col) in
      if abs_float f > 0.0 then
        for j = 0 to tab.ncols do
          r.(j) <- r.(j) -. (f *. pr.(j))
        done
    in
    Array.iteri (fun i r -> if i <> row then eliminate r) tab.t;
    eliminate tab.z;
    tab.basis.(row) <- col

  let iterate ~max_iter tab ~allowed =
    let bland_after = 5 * (tab.m + tab.ncols) in
    let rec go k =
      if k >= max_iter then `Iter_limit
      else begin
        let enter = ref (-1) in
        if k < bland_after then begin
          let best = ref (-.eps) in
          for j = 0 to tab.ncols - 1 do
            if allowed j && tab.z.(j) < !best then begin
              best := tab.z.(j);
              enter := j
            end
          done
        end
        else begin
          let j = ref 0 in
          while !enter < 0 && !j < tab.ncols do
            if allowed !j && tab.z.(!j) < -.eps then enter := !j;
            incr j
          done
        end;
        if !enter < 0 then `Optimal
        else begin
          let row = ref (-1) and best = ref infinity in
          for i = 0 to tab.m - 1 do
            let a = tab.t.(i).(!enter) in
            if a > eps then begin
              let ratio = tab.t.(i).(tab.ncols) /. a in
              if
                ratio < !best -. eps
                || (ratio < !best +. eps
                   && (!row < 0 || tab.basis.(i) < tab.basis.(!row)))
              then begin
                best := ratio;
                row := i
              end
            end
          done;
          if !row < 0 then `Unbounded
          else begin
            pivot tab ~row:!row ~col:!enter;
            go (k + 1)
          end
        end
      end
    in
    go 0

  let solve ?(max_iter = 20000) (p : Sx.problem) =
    let tab = build p in
    let has_art = tab.ncols > tab.art_start in
    let status_phase1 =
      if not has_art then `Optimal
      else begin
        price tab
          (Array.init tab.ncols (fun j -> if j >= tab.art_start then 1.0 else 0.0));
        iterate ~max_iter tab ~allowed:(fun _ -> true)
      end
    in
    match status_phase1 with
    | `Iter_limit -> Sx.Iter_limit
    | `Unbounded -> Sx.Infeasible
    | `Optimal ->
        let phase1_obj = ref 0.0 in
        for i = 0 to tab.m - 1 do
          if tab.basis.(i) >= tab.art_start then
            phase1_obj := !phase1_obj +. tab.t.(i).(tab.ncols)
        done;
        if has_art && !phase1_obj > 1e-6 then Sx.Infeasible
        else begin
          for i = 0 to tab.m - 1 do
            if tab.basis.(i) >= tab.art_start then begin
              let col = ref (-1) in
              for j = 0 to tab.art_start - 1 do
                if !col < 0 && abs_float tab.t.(i).(j) > 1e-7 then col := j
              done;
              if !col >= 0 then pivot tab ~row:i ~col:!col
            end
          done;
          let c2 = Array.make tab.ncols 0.0 in
          Array.blit p.objective 0 c2 0 p.n_vars;
          price tab c2;
          match iterate ~max_iter tab ~allowed:(fun j -> j < tab.art_start) with
          | `Iter_limit -> Sx.Iter_limit
          | `Unbounded -> Sx.Unbounded
          | `Optimal ->
              let x = Array.make p.n_vars 0.0 in
              for i = 0 to tab.m - 1 do
                if tab.basis.(i) < p.n_vars then
                  x.(tab.basis.(i)) <- tab.t.(i).(tab.ncols)
              done;
              let obj = ref 0.0 in
              for j = 0 to p.n_vars - 1 do
                obj := !obj +. (p.objective.(j) *. x.(j))
              done;
              Sx.Optimal { x; objective_value = !obj }
        end
end

(* ----- comparison ----- *)

(* [+. 0.0] maps [-0.0] to [+0.0] and leaves every other value alone *)
let bits v = Int64.bits_of_float (v +. 0.0)
let same_float a b = Int64.equal (bits a) (bits b)

let same (a : Sx.result) (b : Sx.result) =
  match (a, b) with
  | Optimal s, Optimal t ->
      Array.length s.x = Array.length t.x
      && Array.for_all2 same_float s.x t.x
      && same_float s.objective_value t.objective_value
  | Infeasible, Infeasible | Unbounded, Unbounded | Iter_limit, Iter_limit ->
      true
  | (Optimal _ | Infeasible | Unbounded | Iter_limit), _ -> false

let pp_exact ppf (r : Sx.result) =
  match r with
  | Optimal s ->
      Fmt.pf ppf "optimal(%h) x=[%a]" s.objective_value
        Fmt.(array ~sep:(any " ") (fmt "%h")) s.x
  | Infeasible | Unbounded | Iter_limit -> Sx.pp_result ppf r

let check_same label ?max_iter p =
  let expected = Dense.solve ?max_iter p and actual = Sx.solve ?max_iter p in
  if not (same expected actual) then
    Alcotest.failf "%s: dense oracle %a, solver %a" label pp_exact expected
      pp_exact actual;
  actual

(* ----- corpus 1: seeded random LPs ----- *)

(* Sparse rows of every operator with signed right-hand sides; small
   integer coefficients and repeated rows make ties, degenerate
   vertices and redundant equalities (an artificial left basic after
   phase 1) common. Two LPs in three plant a nonnegative point that
   satisfies every row, and half carry a bounding row, so all four
   outcomes are frequent. One LP in ten is larger; one in ten gets a
   small iteration budget. *)
let random_lp r =
  let big = R.int r 10 = 0 in
  let n = 1 + R.int r (if big then 24 else 8)
  and m = 1 + R.int r (if big then 20 else 8) in
  let value () =
    match R.int r 4 with
    | 0 -> 0.0
    | 1 -> Float.of_int (R.int r 7 - 3)
    | _ -> R.uniform r ~lo:(-3.0) ~hi:3.0
  in
  let planted =
    if R.int r 3 < 2 then
      Some (Array.init n (fun _ -> if R.bool r then 0.0 else Float.of_int (R.int r 4)))
    else None
  in
  let row () =
    let coeffs =
      List.filter_map
        (fun j -> if R.int r 5 < 3 then Some (j, value ()) else None)
        (List.init n Fun.id)
    in
    let op = match R.int r 3 with 0 -> Sx.Le | 1 -> Sx.Ge | _ -> Sx.Eq in
    let rhs =
      match planted with
      | Some x0 ->
          let lhs = List.fold_left (fun acc (j, a) -> acc +. (a *. x0.(j))) 0.0 coeffs in
          let slack = if R.bool r then 0.0 else Float.of_int (R.int r 3) in
          (match op with Sx.Le -> lhs +. slack | Sx.Ge -> lhs -. slack | Sx.Eq -> lhs)
      | None -> (
          match R.int r 4 with
          | 0 -> 0.0
          | 1 -> Float.of_int (R.int r 11 - 5)
          | _ -> R.uniform r ~lo:(-10.0) ~hi:10.0)
    in
    { Sx.coeffs; op; rhs }
  in
  let rows = List.init m (fun _ -> row ()) in
  let rows =
    if R.int r 5 = 0 then
      let d = List.nth rows (R.int r m) in
      (* a copy, scaled, possibly as an equality: a redundant row *)
      let s = Float.of_int (1 + R.int r 3) in
      let op = if R.bool r then Sx.Eq else d.Sx.op in
      rows
      @ [ { Sx.coeffs = List.map (fun (j, a) -> (j, s *. a)) d.Sx.coeffs;
            op; rhs = s *. d.Sx.rhs } ]
    else rows
  in
  let rows =
    if R.bool r then
      { Sx.coeffs = List.init n (fun j -> (j, 1.0)); op = Sx.Le;
        rhs = Float.of_int (4 * n) }
      :: rows
    else rows
  in
  let objective = Array.init n (fun _ -> value ()) in
  let max_iter = if R.int r 10 = 0 then Some (1 + R.int r 6) else None in
  ({ Sx.n_vars = n; objective; constraints = rows }, max_iter)

(* Beale's cycling LP: Dantzig pricing stalls at the origin until the
   switch to Bland's rule, the one path random LPs rarely reach *)
let beale () =
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

let random_corpus () =
  ignore (check_same "Beale" (beale ()));
  let tally = Array.make 4 0 in
  for seed = 1 to 5000 do
    let p, max_iter = random_lp (R.create seed) in
    let k =
      match check_same (Printf.sprintf "random LP %d" seed) ?max_iter p with
      | Sx.Optimal _ -> 0
      | Sx.Infeasible -> 1
      | Sx.Unbounded -> 2
      | Sx.Iter_limit -> 3
    in
    tally.(k) <- tally.(k) + 1
  done;
  (* the corpus reaches every outcome, each many times *)
  Array.iteri
    (fun k n ->
      if n < 100 then Alcotest.failf "outcome %d reached only %d times" k n)
    tally

(* ----- corpus 2: the detailed-placement axis LPs ----- *)

(* From one global placement per circuit, both axes: ePlace-A's
   [Flip_round] relaxation and its pinned re-solve (the LPs [Dp_ilp]
   hands to [Ilp.solve] at one node), and [Lp_stages]' area and
   wirelength stages, exactly as those modules build them. *)
let dp_corpus name =
  let c = Circuits.Testcases.get_exn name in
  let gp = (Eplace.Global_place.run c).Eplace.Global_place.layout in
  let seps = Place_common.Sep_plan.plan c ~gp ~all_pairs:true in
  let params = Eplace.Dp_ilp.default_params in
  let tilde =
    sqrt (Netlist.Circuit.total_device_area c /. params.Eplace.Dp_ilp.zeta)
  in
  let solved label p =
    match check_same (name ^ " " ^ label) p with
    | Sx.Optimal s -> s.Sx.x
    | r -> Alcotest.failf "%s %s: %a" name label Sx.pp_result r
  in
  List.iter
    (fun (axis, tag) ->
      let lp =
        DF.axis_lp ~flips:true ~nets:true
          ~extent_cost:(params.Eplace.Dp_ilp.mu *. tilde /. 2.0) ~axis ~seps c
      in
      let with_flip_rows op rhs =
        let rows =
          Array.to_list lp.DF.flip_var
          |> List.filter_map (fun v ->
                 if v < 0 then None
                 else Some { Sx.coeffs = [ (v, 1.0) ]; op; rhs = rhs v })
        in
        { lp.DF.problem with
          Sx.constraints = rows @ lp.DF.problem.Sx.constraints }
      in
      let relax = solved (tag ^ " relaxation") (with_flip_rows Sx.Le (fun _ -> 1.0)) in
      ignore
        (solved (tag ^ " pinned")
           (with_flip_rows Sx.Eq (fun v -> if relax.(v) > 0.5 then 1.0 else 0.0)));
      let area_lp =
        DF.axis_lp ~flips:false ~nets:false ~extent_cost:1.0 ~axis ~seps c
      in
      let area = DF.solution area_lp (solved (tag ^ " area stage") area_lp.DF.problem) ~nodes:0 in
      let wl_lp =
        DF.axis_lp ~cap:(area.DF.extent +. 1e-6) ~flips:false ~nets:true
          ~extent_cost:0.0 ~axis ~seps c
      in
      ignore (solved (tag ^ " wl stage") wl_lp.DF.problem))
    [ (Place_common.Sep_plan.X_axis, "x"); (Place_common.Sep_plan.Y_axis, "y") ]

let tests =
  [
    Alcotest.test_case "5000 random LPs match the dense tableau" `Quick
      random_corpus;
    Alcotest.test_case "DP axis LPs of the ten circuits match" `Quick
      (fun () -> List.iter dp_corpus Circuits.Testcases.all_names);
  ]

let suites = [ ("numerics.lp_oracle", tests) ]
