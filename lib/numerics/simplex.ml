(* Two-phase primal simplex on a dense tableau with sparse pivots.

   Problem form: minimize c.x subject to rows (a.x <= / = / >= b) and
   x >= 0. Sizes in this project are a few hundred rows and columns
   (analog circuits have dozens of devices), so the tableau is stored
   dense; but a pivot row holds only tens of nonzeros out of hundreds
   of columns, so [pivot] gathers the scaled pivot row's nonzero
   columns and updates only those. A skipped update is
   [r -. f *. (+-0.0)], which can only turn a [-0.0] cell into [+0.0];
   no pricing, ratio-test or drive-out comparison tells the two apart,
   so the pivot sequence and every nonzero value are those of the
   dense elimination (which [test/test_simplex_oracle.ml] keeps as the
   oracle).

   Anti-cycling: Dantzig pricing for the first [5 (m + ncols)]
   iterations of a phase, stalled or not, then Bland's rule. *)

type op = Le | Ge | Eq

type constr = { coeffs : (int * float) list; op : op; rhs : float }

type problem = {
  n_vars : int;
  objective : float array;  (* minimized *)
  constraints : constr list;
}

type solution = { x : float array; objective_value : float }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit

let eps = 1e-9

type tableau = {
  m : int;  (* rows *)
  ncols : int;  (* structural + slack + artificial *)
  t : float array array;  (* m rows of length ncols+1; last col = rhs *)
  z : float array;  (* reduced-cost row of length ncols+1 *)
  basis : int array;  (* basic column per row *)
  art_start : int;  (* columns >= art_start are artificial *)
  nz : int array;  (* [pivot]'s scratch: the pivot row's nonzero columns *)
  mutable pivots : int;  (* pivots so far, all phases *)
}

let build (p : problem) =
  let m = List.length p.constraints in
  let rows = Array.of_list p.constraints in
  (* Normalise to rhs >= 0. *)
  let rows =
    Array.map
      (fun r ->
        if r.rhs < 0.0 then
          {
            coeffs = List.map (fun (j, a) -> (j, -.a)) r.coeffs;
            op = (match r.op with Le -> Ge | Ge -> Le | Eq -> Eq);
            rhs = -.r.rhs;
          }
        else r)
      rows
  in
  let n_slack =
    Array.fold_left
      (fun acc r -> match r.op with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let n_art =
    Array.fold_left
      (fun acc r -> match r.op with Ge | Eq -> acc + 1 | Le -> acc)
      0 rows
  in
  let art_start = p.n_vars + n_slack in
  let ncols = art_start + n_art in
  let t = Array.init m (fun _ -> Array.make (ncols + 1) 0.0) in
  let basis = Array.make m (-1) in
  let slack = ref p.n_vars and art = ref art_start in
  Array.iteri
    (fun i r ->
      List.iter
        (fun (j, a) ->
          if j < 0 || j >= p.n_vars then invalid_arg "Simplex: var index";
          t.(i).(j) <- t.(i).(j) +. a)
        r.coeffs;
      t.(i).(ncols) <- r.rhs;
      (match r.op with
      | Le ->
          t.(i).(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          t.(i).(!slack) <- -1.0;
          incr slack;
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art
      | Eq ->
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          incr art))
    rows;
  {
    m;
    ncols;
    t;
    z = Array.make (ncols + 1) 0.0;
    basis;
    art_start;
    nz = Array.make (ncols + 1) 0;
    pivots = 0;
  }

(* Rebuild the reduced-cost row for cost vector [c] (length ncols,
   padded with zeros) under the current basis. *)
let price tab c =
  Array.fill tab.z 0 (tab.ncols + 1) 0.0;
  Array.blit c 0 tab.z 0 (Array.length c);
  for i = 0 to tab.m - 1 do
    let cb = if tab.basis.(i) < Array.length c then c.(tab.basis.(i)) else 0.0 in
    if not (Float.equal cb 0.0) then begin
      let row = tab.t.(i) in
      for j = 0 to tab.ncols do
        tab.z.(j) <- tab.z.(j) -. (cb *. row.(j))
      done
    end
  done

(* Scales the pivot row densely (so every stored product is the one a
   dense elimination computes), gathers its nonzero columns, then
   eliminates over those columns only. *)
let pivot tab ~row ~col =
  let pr = tab.t.(row) in
  let pv = pr.(col) in
  (* the ratio test only selects pivots with |pv| > eps, so this never
     fires; it turns a silent inf/nan tableau into a hard error (N2) *)
  if abs_float pv <= 0.0 then invalid_arg "Simplex.pivot: zero pivot";
  let inv = 1.0 /. pv in
  let nz = tab.nz and k = ref 0 in
  for j = 0 to tab.ncols do
    let v = pr.(j) *. inv in
    pr.(j) <- v;
    if not (Float.equal v 0.0) then begin
      nz.(!k) <- j;
      incr k
    end
  done;
  let k = !k in
  for i = 0 to tab.m - 1 do
    if i <> row then begin
      let r = tab.t.(i) in
      let f = r.(col) in
      if abs_float f > 0.0 then
        for q = 0 to k - 1 do
          let j = nz.(q) in
          r.(j) <- r.(j) -. (f *. pr.(j))
        done
    end
  done;
  let f = tab.z.(col) in
  if abs_float f > 0.0 then
    for q = 0 to k - 1 do
      let j = nz.(q) in
      tab.z.(j) <- tab.z.(j) -. (f *. pr.(j))
    done;
  tab.basis.(row) <- col;
  tab.pivots <- tab.pivots + 1
[@@placer_lint.hot]

(* Runs simplex iterations until optimal, unbounded or [max_iter].
   Only columns [< limit] may enter: [ncols] in phase 1, [art_start]
   in phase 2 (which bans the artificials). *)
let iterate ~max_iter tab ~limit =
  let bland_after = 5 * (tab.m + tab.ncols) in
  let k = ref 0 and running = ref true and status = ref `Optimal in
  while !running do
    if !k >= max_iter then begin
      status := `Iter_limit;
      running := false
    end
    else begin
      (* entering column *)
      let enter = ref (-1) in
      if !k < bland_after then begin
        let best = ref (-.eps) in
        for j = 0 to limit - 1 do
          if tab.z.(j) < !best then begin
            best := tab.z.(j);
            enter := j
          end
        done
      end
      else begin
        (* Bland: smallest index with negative reduced cost *)
        let j = ref 0 in
        while !enter < 0 && !j < limit do
          if tab.z.(!j) < -.eps then enter := !j;
          incr j
        done
      end;
      if !enter < 0 then running := false
      else begin
        (* ratio test *)
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
        if !row < 0 then begin
          status := `Unbounded;
          running := false
        end
        else begin
          pivot tab ~row:!row ~col:!enter;
          incr k
        end
      end
    end
  done;
  !status
[@@placer_lint.hot]

let pivots_counter = Telemetry.Counter.make "simplex.pivots"

let two_phase ~max_iter (p : problem) tab =
  let has_art = tab.ncols > tab.art_start in
  let status_phase1 =
    if not has_art then `Optimal
    else begin
      (* Phase 1: minimise the sum of artificials. *)
      let c1 = Array.make tab.ncols 0.0 in
      for j = tab.art_start to tab.ncols - 1 do
        c1.(j) <- 1.0
      done;
      price tab c1;
      iterate ~max_iter tab ~limit:tab.ncols
    end
  in
  match status_phase1 with
  | `Iter_limit -> Iter_limit
  | `Unbounded -> Infeasible (* phase-1 objective is bounded below by 0 *)
  | `Optimal ->
      let phase1_obj =
        if not has_art then 0.0
        else begin
          let acc = ref 0.0 in
          for i = 0 to tab.m - 1 do
            if tab.basis.(i) >= tab.art_start then
              acc := !acc +. tab.t.(i).(tab.ncols)
          done;
          !acc
        end
      in
      if phase1_obj > 1e-6 then Infeasible
      else begin
        (* Drive any basic artificial (at value 0) out of the basis. *)
        for i = 0 to tab.m - 1 do
          if tab.basis.(i) >= tab.art_start then begin
            let col = ref (-1) in
            for j = 0 to tab.art_start - 1 do
              if !col < 0 && abs_float tab.t.(i).(j) > 1e-7 then col := j
            done;
            if !col >= 0 then pivot tab ~row:i ~col:!col
            (* else: redundant row; the artificial stays basic at 0 *)
          end
        done;
        (* Phase 2 *)
        let c2 = Array.make tab.ncols 0.0 in
        Array.blit p.objective 0 c2 0 p.n_vars;
        price tab c2;
        match iterate ~max_iter tab ~limit:tab.art_start with
        | `Iter_limit -> Iter_limit
        | `Unbounded -> Unbounded
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
            Optimal { x; objective_value = !obj }
      end

let solve ?(max_iter = 20000) (p : problem) =
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Simplex.solve: objective size";
  let tab = build p in
  let r = two_phase ~max_iter p tab in
  Telemetry.Counter.add pivots_counter tab.pivots;
  r

let pp_result ppf = function
  | Optimal s -> Fmt.pf ppf "optimal(%.6g)" s.objective_value
  | Infeasible -> Fmt.pf ppf "infeasible"
  | Unbounded -> Fmt.pf ppf "unbounded"
  | Iter_limit -> Fmt.pf ppf "iteration-limit"
