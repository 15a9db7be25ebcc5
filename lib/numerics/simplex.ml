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

let normalised_op r =
  if r.rhs < 0.0 then match r.op with Le -> Ge | Ge -> Le | Eq -> Eq
  else r.op

(* Fills the workspace with the initial tableau of [p], each row
   normalised to rhs >= 0 as it is written. *)
let build ws (p : problem) =
  let m, n_slack, n_ge, n_eq =
    List.fold_left
      (fun (m, s, g, e) r ->
        match normalised_op r with
        | Le -> (m + 1, s + 1, g, e)
        | Ge -> (m + 1, s + 1, g + 1, e)
        | Eq -> (m + 1, s, g, e + 1))
      (0, 0, 0, 0) p.constraints
  in
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
  and eq_col = ref (art_start + 1) in
  List.iteri
    (fun i r ->
      let b = i * w in
      let neg = r.rhs < 0.0 in
      List.iter
        (fun (j, a) ->
          if j < 0 || j >= p.n_vars then invalid_arg "Simplex: var index";
          t.(b + j) <- t.(b + j) +. (if neg then -.a else a))
        r.coeffs;
      t.(b + art_start) <- (if neg then -.r.rhs else r.rhs);
      match normalised_op r with
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

let two_phase ~max_iter (p : problem) tab =
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
  let r = two_phase ~max_iter p tab in
  Telemetry.Counter.add pivots_counter tab.pivots;
  Telemetry.Counter.add phase1_pivots_counter tab.phase1_pivots;
  r

let pp_result ppf = function
  | Optimal s -> Fmt.pf ppf "optimal(%.6g)" s.objective_value
  | Infeasible -> Fmt.pf ppf "infeasible"
  | Unbounded -> Fmt.pf ppf "unbounded"
  | Iter_limit -> Fmt.pf ppf "iteration-limit"
