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

   Storage. The tableau is one row-major float array in a caller-owned
   [workspace], grown to the exact size a solve needs and reused by the
   next. Logical columns are numbered as in the dense tableau:
   structural, then one slack per [Le]/[Ge] row, then one artificial
   per [Ge]/[Eq] row, then the right-hand side. A physical row holds
   the structural and slack columns, the right-hand side, then the
   [Eq] artificials. A [Ge] row's artificial starts as the negation of
   its slack (+1 against -1), and every scale [v *. inv] and every
   elimination [r -. f *. p] keeps it the exact IEEE negation of that
   slack, up to the sign of a zero. So it is not stored: reading it
   reads [-. slack]. The reduced-cost row [z] keeps every logical
   column, so pricing, Bland's indices and the ratio-test ties are
   those of the dense tableau. After phase 1 and the drive-out nothing
   reads an artificial column or its reduced cost again, so phase 2
   updates only the structural and slack columns and the right-hand
   side.

   Presolve. Before [build], [propagate] raises each variable's lower
   bound [lo] (0 at first) by every row that, oriented as [>=], has
   exactly one positive summed coefficient [a_k]:
   [lo_k >= (b - sum_{j<>k} a_j lo_j) / a_k], since every other
   coefficient is negative and [x_j >= lo_j]. It sweeps the rows in
   order until no bound rises, at most [n_vars + 1] times, so a
   positive cycle (an infeasible LP) stops with bounds that are still
   implied. [plan_rows] then decides how each row is written over
   [x' = x - lo]: its right-hand side becomes [b - sum a_j lo_j]; a
   one-variable row that [x' >= 0] implies is left out; a row with a
   negative right-hand side, and a [Ge] row with a right-hand side
   [<= 0], is negated, so a [Ge] row needs an artificial only while
   its bound is not met at [lo]. On detailed-placement LPs [lo] is the
   longest-path packing, so most rows start with a feasible slack.

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

(* Scratch a solve overwrites; each array grows to the exact length a
   solve needs and is never shrunk. *)
type workspace = {
  mutable cells : float array;  (* the tableau, m rows of width w *)
  mutable zrow : float array;  (* reduced costs, ncols + 1 *)
  mutable basic : int array;  (* basic column per row, m *)
  mutable enter_col : float array;  (* the entering column, m *)
  mutable nz_cols : int array;  (* pivot row's nonzero physical columns, w *)
  mutable nz_vals : float array;  (* and their scaled values, w *)
  mutable z_of_phys : int array;  (* physical column -> [z] index, w *)
  mutable twin_of_phys : int array;  (* slack -> its Ge artificial or -1, w *)
  mutable phys_of_art : int array;  (* artificial -> see [gather], n_art *)
  mutable lo : float array;  (* implied lower bound per variable, n_vars *)
  mutable slot : int array;  (* variable -> its [sum_*] slot or -1, n_vars *)
  mutable sum_var : int array;  (* a row's distinct variables, n_vars *)
  mutable sum_val : float array;  (* and their summed coefficients *)
  mutable row_code : int array;  (* per input row: 1, -1 negated, 0 left out *)
  mutable row_op : op array;  (* per input row: the operator written *)
  mutable row_rhs : float array;  (* per input row: the rhs written *)
}

let workspace () =
  {
    cells = [||];
    zrow = [||];
    basic = [||];
    enter_col = [||];
    nz_cols = [||];
    nz_vals = [||];
    z_of_phys = [||];
    twin_of_phys = [||];
    phys_of_art = [||];
    lo = [||];
    slot = [||];
    sum_var = [||];
    sum_val = [||];
    row_code = [||];
    row_op = [||];
    row_rhs = [||];
  }

let floats a n = if Array.length a >= n then a else Array.make n 0.0
let ints a n = if Array.length a >= n then a else Array.make n 0

type tableau = {
  m : int;  (* rows *)
  ncols : int;  (* logical: structural + slack + artificial *)
  art_start : int;  (* logical columns >= art_start are artificial;
                       also the physical column of the rhs *)
  w : int;  (* physical row width: art_start + 1 + Eq artificials *)
  t : float array;  (* cell (i, p) at [i * w + p] *)
  z : float array;  (* reduced-cost row over logical columns; [ncols] = rhs *)
  basis : int array;  (* basic logical column per row *)
  col : float array;  (* the entering column, filled by [gather] *)
  nz : int array;  (* [pivot]'s scratch: the pivot row's nonzero columns *)
  nzv : float array;  (* and its values there *)
  zix : int array;  (* physical column -> logical [z] index *)
  twin : int array;  (* physical slack column -> its Ge artificial, or -1 *)
  acol : int array;  (* artificial a: Eq's physical column, or -(slack+1) *)
  mutable width : int;  (* physical columns a pivot updates *)
  mutable phase2 : bool;  (* artificials retired: no twin [z] updates *)
  mutable pivots : int;  (* pivots so far, all phases *)
  mutable phase1_pivots : int;  (* those before phase 2 (drive-out too) *)
}

(* ----- presolve ----- *)

(* Adds [coeffs] into the [k] sums so far; returns the new count. *)
let rec add_coeffs ws ~n_vars k = function
  | [] -> k
  | (j, a) :: rest ->
      if j < 0 || j >= n_vars then invalid_arg "Simplex: var index";
      let s = ws.slot.(j) in
      if s >= 0 then begin
        ws.sum_val.(s) <- ws.sum_val.(s) +. a;
        add_coeffs ws ~n_vars k rest
      end
      else begin
        ws.slot.(j) <- k;
        ws.sum_var.(k) <- j;
        ws.sum_val.(k) <- 0.0 +. a;
        add_coeffs ws ~n_vars (k + 1) rest
      end

(* Sums [r]'s coefficients per variable, in list order as [build]
   does, into [ws.sum_val] over its distinct variables [ws.sum_var];
   returns how many, or -1 if a sum is not finite. *)
let sum_row ws ~n_vars (r : constr) =
  let k = add_coeffs ws ~n_vars 0 r.coeffs in
  let finite = ref true in
  for s = 0 to k - 1 do
    ws.slot.(ws.sum_var.(s)) <- -1;
    if not (Float.is_finite ws.sum_val.(s)) then finite := false
  done;
  if !finite then k else -1

(* A bound rises only by more than this, relative to its size. A
   rounding error then never seeds a rise, so a cycle of rows whose
   coefficient ratios multiply to more than 1 cannot push a bound,
   sweep by sweep, past the feasible point that pins the cycle. *)
let rise_tol = 1e-9

(* The row [sgn a.x >= sgn b] over the [k] summed coefficients: if
   exactly one, [a_k], is positive, raises [lo_k] to
   [(sgn b - sum_{j<>k} sgn a_j lo_j) / a_k] when that is finite and
   higher by more than [rise_tol]. Returns whether it rose. *)
let raise_bound ws k ~sgn ~b =
  let n_pos = ref 0 and pos = ref 0 in
  for s = 0 to k - 1 do
    if sgn *. ws.sum_val.(s) > 0.0 then begin
      incr n_pos;
      pos := s
    end
  done;
  let ak = if !n_pos = 1 then sgn *. ws.sum_val.(!pos) else 0.0 in
  if not (ak > 0.0) then false
  else begin
    let v = ref (sgn *. b) in
    for s = 0 to k - 1 do
      if s <> !pos then
        v := !v -. (sgn *. ws.sum_val.(s) *. ws.lo.(ws.sum_var.(s)))
    done;
    let v = !v /. ak and j = ws.sum_var.(!pos) in
    if
      Float.is_finite v
      && v -. ws.lo.(j) > rise_tol *. Float.max 1.0 (abs_float v)
    then begin
      ws.lo.(j) <- v;
      true
    end
    else false
  end

(* Fills [ws.lo] with the implied lower bounds: sweeps the rows in
   order, each oriented as [>=] ([Le] negated, [Eq] both ways), until
   no bound rises, at most [n_vars + 1] times. *)
let propagate ws (p : problem) =
  let n = p.n_vars in
  Array.fill ws.lo 0 n 0.0;
  Array.fill ws.slot 0 n (-1);
  let sweeps = ref 0 and rising = ref true in
  while !rising && !sweeps <= n do
    rising := false;
    incr sweeps;
    List.iter
      (fun r ->
        let k = sum_row ws ~n_vars:n r and b = r.rhs in
        if k >= 0 && Float.is_finite b then begin
          let up =
            match r.op with
            | Ge | Eq -> raise_bound ws k ~sgn:1.0 ~b
            | Le -> false
          in
          let down =
            match r.op with
            | Le | Eq -> raise_bound ws k ~sgn:(-1.0) ~b
            | Ge -> false
          in
          if up || down then rising := true
        end)
      p.constraints
  done

(* Decides how [build] writes each row over [x' = x - lo]: with the
   right-hand side [b - sum a_j lo_j]; left out ([row_code] 0) if it
   has one variable and [x' >= 0] implies it; negated ([row_code] -1)
   if that rhs is negative, or [<= 0] on a [Ge] row, so that every
   written rhs is [>= 0] and a [Ge] row already met at [lo] starts
   with its slack basic. Returns the number of input rows. *)
let plan_rows ws (p : problem) =
  let m = List.length p.constraints in
  ws.lo <- floats ws.lo p.n_vars;
  ws.slot <- ints ws.slot p.n_vars;
  ws.sum_var <- ints ws.sum_var p.n_vars;
  ws.sum_val <- floats ws.sum_val p.n_vars;
  ws.row_code <- ints ws.row_code m;
  if Array.length ws.row_op < m then ws.row_op <- Array.make m Le;
  ws.row_rhs <- floats ws.row_rhs m;
  propagate ws p;
  let lo = ws.lo and rhs = ws.row_rhs in
  List.iteri
    (fun i r ->
      rhs.(i) <- r.rhs;
      List.iter
        (fun (j, a) ->
          if not (Float.equal lo.(j) 0.0) then
            rhs.(i) <- rhs.(i) -. (a *. lo.(j)))
        r.coeffs;
      let b = rhs.(i) in
      let implied =
        sum_row ws ~n_vars:p.n_vars r = 1
        &&
        let a = ws.sum_val.(0) in
        match r.op with
        | Ge -> a >= 0.0 && b <= 0.0
        | Le -> a <= 0.0 && b >= 0.0
        | Eq -> false
      in
      let neg =
        b < 0.0 || (b <= 0.0 && match r.op with Ge -> true | Le | Eq -> false)
      in
      ws.row_code.(i) <- (if implied then 0 else if neg then -1 else 1);
      ws.row_op.(i) <-
        (if neg then match r.op with Le -> Ge | Ge -> Le | Eq -> Eq else r.op);
      if neg then rhs.(i) <- -.b)
    p.constraints;
  m

let presolve (p : problem) =
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Simplex.presolve: objective size";
  let ws = workspace () in
  ignore (plan_rows ws p);
  let rows =
    List.concat
      (List.mapi
         (fun i r ->
           match ws.row_code.(i) with
           | 0 -> []
           | code ->
               let neg = code < 0 in
               [
                 {
                   coeffs =
                     List.map
                       (fun (j, a) -> (j, if neg then -.a else a))
                       r.coeffs;
                   op = ws.row_op.(i);
                   rhs = ws.row_rhs.(i);
                 };
               ])
         p.constraints)
  in
  (Array.sub ws.lo 0 p.n_vars, { p with constraints = rows })

(* Fills the workspace with the initial tableau of [p] over
   [x' = x - lo], each row written as [plan_rows] decided. *)
let build ws (p : problem) =
  let rows = plan_rows ws p in
  let m = ref 0 and n_slack = ref 0 and n_ge = ref 0 and n_eq = ref 0 in
  for i = 0 to rows - 1 do
    if ws.row_code.(i) <> 0 then begin
      incr m;
      match ws.row_op.(i) with
      | Le -> incr n_slack
      | Ge ->
          incr n_slack;
          incr n_ge
      | Eq -> incr n_eq
    end
  done;
  let m = !m and n_slack = !n_slack and n_ge = !n_ge and n_eq = !n_eq in
  let art_start = p.n_vars + n_slack in
  let ncols = art_start + n_ge + n_eq in
  let w = art_start + 1 + n_eq in
  ws.cells <- floats ws.cells (m * w);
  ws.zrow <- floats ws.zrow (ncols + 1);
  ws.basic <- ints ws.basic m;
  ws.enter_col <- floats ws.enter_col m;
  ws.nz_cols <- ints ws.nz_cols w;
  ws.nz_vals <- floats ws.nz_vals w;
  ws.z_of_phys <- ints ws.z_of_phys w;
  ws.twin_of_phys <- ints ws.twin_of_phys w;
  ws.phys_of_art <- ints ws.phys_of_art (ncols - art_start);
  let t = ws.cells and basis = ws.basic in
  let zix = ws.z_of_phys and twin = ws.twin_of_phys
  and acol = ws.phys_of_art in
  Array.fill t 0 (m * w) 0.0;
  Array.fill twin 0 w (-1);
  for q = 0 to art_start - 1 do
    zix.(q) <- q
  done;
  zix.(art_start) <- ncols;
  let slack = ref p.n_vars and art = ref art_start
  and eq_col = ref (art_start + 1) and row = ref 0 in
  List.iteri
    (fun r_ix r ->
      let code = ws.row_code.(r_ix) in
      if code <> 0 then begin
        let i = !row and neg = code < 0 in
        incr row;
        let b = i * w in
        List.iter
          (fun (j, a) -> t.(b + j) <- t.(b + j) +. (if neg then -.a else a))
          r.coeffs;
        t.(b + art_start) <- ws.row_rhs.(r_ix);
        (match ws.row_op.(r_ix) with
        | Le ->
            t.(b + !slack) <- 1.0;
            basis.(i) <- !slack;
            incr slack
        | Ge ->
            t.(b + !slack) <- -1.0;
            twin.(!slack) <- !art;
            acol.(!art - art_start) <- -(!slack + 1);
            basis.(i) <- !art;
            incr slack;
            incr art
        | Eq ->
            t.(b + !eq_col) <- 1.0;
            zix.(!eq_col) <- !art;
            acol.(!art - art_start) <- !eq_col;
            basis.(i) <- !art;
            incr eq_col;
            incr art)
      end)
    p.constraints;
  {
    m;
    ncols;
    art_start;
    w;
    t;
    z = ws.zrow;
    basis;
    col = ws.enter_col;
    nz = ws.nz_cols;
    nzv = ws.nz_vals;
    zix;
    twin;
    acol;
    width = w;
    phase2 = false;
    pivots = 0;
    phase1_pivots = 0;
  }

(* Rebuild the reduced-cost row for phase 1's costs (1 on every
   artificial) or phase 2's ([objective] on the structural columns)
   under the current basis. Phase 2 leaves the artificials' entries
   stale: nothing reads them. *)
let price tab ~objective =
  let cost j =
    if not tab.phase2 then if j >= tab.art_start then 1.0 else 0.0
    else if j < Array.length objective then objective.(j)
    else 0.0
  in
  for j = 0 to tab.ncols do
    tab.z.(j) <- (if j < tab.ncols then cost j else 0.0)
  done;
  for i = 0 to tab.m - 1 do
    let cb = cost tab.basis.(i) in
    if not (Float.equal cb 0.0) then begin
      let b = i * tab.w in
      for q = 0 to tab.width - 1 do
        let v = tab.t.(b + q) in
        let j = tab.zix.(q) in
        tab.z.(j) <- tab.z.(j) -. (cb *. v);
        if not tab.phase2 then begin
          let a = tab.twin.(q) in
          if a >= 0 then tab.z.(a) <- tab.z.(a) -. (cb *. -.v)
        end
      done
    end
  done

(* Copies logical column [j] into [tab.col]: the one strided read of
   the entering column, shared by the ratio test and [pivot]. *)
let gather tab j =
  let q = if j < tab.art_start then j else tab.acol.(j - tab.art_start) in
  if q >= 0 then
    for i = 0 to tab.m - 1 do
      tab.col.(i) <- tab.t.((i * tab.w) + q)
    done
  else
    (* a Ge artificial: the negated slack *)
    let s = -q - 1 in
    for i = 0 to tab.m - 1 do
      tab.col.(i) <- -.tab.t.((i * tab.w) + s)
    done
[@@placer_lint.hot]

(* Pivots on ([row], [col]) with [col] already [gather]ed. Scales the
   pivot row densely (so every stored product is the one a dense
   elimination computes), gathers its nonzero columns, then eliminates
   over those columns only, each row's factor read from [tab.col]. *)
let pivot tab ~row ~col =
  let t = tab.t and w = tab.w in
  let base = row * w in
  let pv = tab.col.(row) in
  (* the ratio test only selects pivots with |pv| > eps, so this never
     fires; it turns a silent inf/nan tableau into a hard error (N2) *)
  if abs_float pv <= 0.0 then invalid_arg "Simplex.pivot: zero pivot";
  let inv = 1.0 /. pv in
  let nz = tab.nz and nzv = tab.nzv and k = ref 0 in
  for q = 0 to tab.width - 1 do
    let v = t.(base + q) *. inv in
    t.(base + q) <- v;
    if not (Float.equal v 0.0) then begin
      nz.(!k) <- q;
      nzv.(!k) <- v;
      incr k
    end
  done;
  let k = !k in
  for i = 0 to tab.m - 1 do
    let f = tab.col.(i) in
    if i <> row && abs_float f > 0.0 then begin
      let b = i * w in
      (* [nz] holds columns < w, so [q] is inside row [i] *)
      for s = 0 to k - 1 do
        let q = b + Array.unsafe_get nz s in
        Array.unsafe_set t q
          (Array.unsafe_get t q -. (f *. Array.unsafe_get nzv s))
      done
    end
  done;
  let z = tab.z in
  let f = z.(col) in
  if abs_float f > 0.0 then
    for s = 0 to k - 1 do
      let q = nz.(s) and v = nzv.(s) in
      let j = tab.zix.(q) in
      z.(j) <- z.(j) -. (f *. v);
      if not tab.phase2 then begin
        let a = tab.twin.(q) in
        if a >= 0 then z.(a) <- z.(a) -. (f *. -.v)
      end
    done;
  tab.basis.(row) <- col;
  tab.pivots <- tab.pivots + 1;
  if not tab.phase2 then tab.phase1_pivots <- tab.phase1_pivots + 1
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
        gather tab !enter;
        let row = ref (-1) and best = ref infinity in
        for i = 0 to tab.m - 1 do
          let a = tab.col.(i) in
          if a > eps then begin
            let ratio = tab.t.((i * tab.w) + tab.art_start) /. a in
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
let phase1_pivots_counter = Telemetry.Counter.make "simplex.phase1_pivots"

(* Retires the artificials: from here on pivots and pricing touch the
   structural and slack columns and the rhs only. *)
let start_phase2 tab =
  tab.phase2 <- true;
  tab.width <- tab.art_start + 1

let rhs tab i = tab.t.((i * tab.w) + tab.art_start)

let two_phase ~max_iter ~lo (p : problem) tab =
  let has_art = tab.ncols > tab.art_start in
  let status_phase1 =
    if not has_art then `Optimal
    else begin
      (* Phase 1: minimise the sum of artificials. *)
      price tab ~objective:p.objective;
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
            if tab.basis.(i) >= tab.art_start then acc := !acc +. rhs tab i
          done;
          !acc
        end
      in
      if phase1_obj > 1e-6 then Infeasible
      else begin
        (* Drive any basic artificial (at value 0) out of the basis. *)
        for i = 0 to tab.m - 1 do
          if tab.basis.(i) >= tab.art_start then begin
            let b = i * tab.w in
            let col = ref (-1) in
            for j = 0 to tab.art_start - 1 do
              if !col < 0 && abs_float tab.t.(b + j) > 1e-7 then col := j
            done;
            if !col >= 0 then begin
              gather tab !col;
              pivot tab ~row:i ~col:!col
            end
            (* else: redundant row; the artificial stays basic at 0 *)
          end
        done;
        (* Phase 2 *)
        start_phase2 tab;
        price tab ~objective:p.objective;
        match iterate ~max_iter tab ~limit:tab.art_start with
        | `Iter_limit -> Iter_limit
        | `Unbounded -> Unbounded
        | `Optimal ->
            let x = Array.make p.n_vars 0.0 in
            for i = 0 to tab.m - 1 do
              if tab.basis.(i) < p.n_vars then x.(tab.basis.(i)) <- rhs tab i
            done;
            for j = 0 to p.n_vars - 1 do
              x.(j) <- lo.(j) +. x.(j)
            done;
            let obj = ref 0.0 in
            for j = 0 to p.n_vars - 1 do
              obj := !obj +. (p.objective.(j) *. x.(j))
            done;
            Optimal { x; objective_value = !obj }
      end

let solve ?(max_iter = 20000) ?ws (p : problem) =
  if Array.length p.objective <> p.n_vars then
    invalid_arg "Simplex.solve: objective size";
  let ws = match ws with Some ws -> ws | None -> workspace () in
  let tab = build ws p in
  let r = two_phase ~max_iter ~lo:ws.lo p tab in
  Telemetry.Counter.add pivots_counter tab.pivots;
  Telemetry.Counter.add phase1_pivots_counter tab.phase1_pivots;
  r

let pp_result ppf = function
  | Optimal s -> Fmt.pf ppf "optimal(%.6g)" s.objective_value
  | Infeasible -> Fmt.pf ppf "infeasible"
  | Unbounded -> Fmt.pf ppf "unbounded"
  | Iter_limit -> Fmt.pf ppf "iteration-limit"
