(* Phase 4: numeric-stability & float-determinism dataflow (N1-N4).

   The repo's goldens pin floating-point results bit for bit, so the
   numerics have to be *stable* (no exact-equality convergence tests,
   no unguarded divisions feeding NaN/inf into a cached table) and
   *order-deterministic* (no hash-order float reductions over pool
   results).  This pass walks the functions the core harvested
   ([Ir.harvest]) path by path, carrying a small interval/sign lattice
   ("rank") per syntactic path; parameters, ref cells, the recursion
   test, N1's condition calls and everything N4 reads come from the
   core's per-function facts.  It reports:

   N1  exact float equality (Stdlib's [=], [compare], [Float.equal],
       [Float.compare]) used as a while-loop exit or a recursive
       termination test on computed floats;
   N2  [/.], [sqrt], [log] whose operand is not dominated by a
       zero/sign guard on the intraprocedural path from the function
       entry.  Divisors that are bare parameters become *obligations*
       propagated to call sites through a worklist fixpoint; surviving
       obligations are published as the [nonzero-args] field of the
       effect summaries so callers outside the scanned scope can be
       audited with --dump-summaries;
   N3  non-compensated float accumulation ([fold_left (+.)], manual
       [r := !r +. e] loops) inside [[@@placer_lint.numeric]]
       functions — the blessed fix is [Vec.ksum]/[Vec.kdot] (Kahan);
   N4  float reductions over [Pool.map]/[Pool.map_list] results folded
       in hash order ([Hashtbl.fold]/[Hashtbl.iter]), which would make
       parallel runs diverge from serial.

   Guard dominance is deliberately precision-biased: a finding is
   emitted only when the pass *proves* no guard dominates the operand;
   anything it cannot rank stays quiet only where the rule demands a
   proof of goodness (N2 requires the proof, so unknown ranks *do*
   fire — that asymmetry is the point of the rule). *)

open Ir

(* ----- scope ----- *)

(* N1/N2 cover the numeric core whether or not a function is
   attributed; [@@placer_lint.numeric] opts additional functions in
   (and is the only way to enable N3). *)
let numeric_dirs =
  [
    "lib/numerics/"; "lib/density/"; "lib/wirelength/"; "lib/gnn/";
    "lib/annealing/"; "lib/matheuristic/";
  ]

let in_numeric_dirs file =
  List.exists (fun d -> String.starts_with ~prefix:d file) numeric_dirs

(* ----- the rank lattice -----

   rank = (lower bound, upper bound, known-nonzero), each bound
   carrying a strictness bit.  [meet] conjoins facts along a path,
   [join] merges branches.  Everything unknown is [top]. *)

type bound = { bv : float; strict : bool }
type rank = { lb : bound option; ub : bound option; nz : bool }

let top = { lb = None; ub = None; nz = false }

let point c =
  let b = Some { bv = c; strict = false } in
  { lb = b; ub = b; nz = not (Float.equal c 0.0) }

let pos_rank = { lb = Some { bv = 0.0; strict = true }; ub = None; nz = true }
let nonneg_rank = { lb = Some { bv = 0.0; strict = false }; ub = None; nz = false }
let nz_rank = { top with nz = true }

let const_val r =
  match (r.lb, r.ub) with
  | Some a, Some b
    when (not a.strict) && (not b.strict) && Float.equal a.bv b.bv ->
      Some a.bv
  | _ -> None

let is_pos r =
  match r.lb with
  | Some b -> b.bv > 0.0 || (b.bv >= 0.0 && (b.strict || r.nz))
  | None -> false

let is_neg r =
  match r.ub with
  | Some b -> b.bv < 0.0 || (b.bv <= 0.0 && (b.strict || r.nz))
  | None -> false

let is_nonneg r = match r.lb with Some b -> b.bv >= 0.0 | None -> false
let is_nonzero r = r.nz || is_pos r || is_neg r

(* Of two bounds, the larger ([~hi]) or the smaller; on a tie, strict
   by [tie] of the two strictness bits *)
let pick ~hi ~tie x y =
  let beats a b = if hi then a.bv > b.bv else a.bv < b.bv in
  if beats x y then x
  else if beats y x then y
  else { bv = x.bv; strict = tie x.strict y.strict }

(* conjunction: tighter bound wins *)
let meet_bound ~hi a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some x, Some y -> Some (pick ~hi ~tie:( || ) x y)

let meet_lb = meet_bound ~hi:true
let meet_ub = meet_bound ~hi:false
let meet a b = { lb = meet_lb a.lb b.lb; ub = meet_ub a.ub b.ub; nz = a.nz || b.nz }

(* disjunction: looser bound wins, info only if both sides have it *)
let join_bound ~hi a b =
  match (a, b) with
  | None, _ | _, None -> None
  | Some x, Some y -> Some (pick ~hi ~tie:( && ) x y)

let join_lb = join_bound ~hi:false
let join_ub = join_bound ~hi:true
let join a b = { lb = join_lb a.lb b.lb; ub = join_ub a.ub b.ub; nz = a.nz && b.nz }

let bound_equal a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Float.equal x.bv y.bv && Bool.equal x.strict y.strict
  | _ -> false

let rank_equal a b =
  bound_equal a.lb b.lb && bound_equal a.ub b.ub && Bool.equal a.nz b.nz

let neg_bound b = { bv = -.b.bv; strict = b.strict }

let neg_rank r =
  { lb = Option.map neg_bound r.ub; ub = Option.map neg_bound r.lb; nz = r.nz }

let add_bound a b =
  match (a, b) with
  | Some x, Some y -> Some { bv = x.bv +. y.bv; strict = x.strict || y.strict }
  | _ -> None

let add_rank a b = { lb = add_bound a.lb b.lb; ub = add_bound a.ub b.ub; nz = false }
let sub_rank a b = add_rank a (neg_rank b)
let abs_rank r = { lb = Some { bv = 0.0; strict = false }; ub = None; nz = r.nz }

let sqrt_rank r =
  if is_pos r then pos_rank else if is_nonneg r then nonneg_rank else top

let div_rank a b =
  if is_pos a && is_pos b then pos_rank
  else if is_nonneg a && is_pos b then nonneg_rank
  else if is_nonzero a && is_nonzero b then nz_rank
  else top

(* max: lb is the tighter of the two (present if either is), ub only
   if both are bounded above — the looser one *)
let max_rank a b =
  { lb = meet_lb a.lb b.lb; ub = join_ub a.ub b.ub; nz = false }

let min_rank a b =
  { lb = join_lb a.lb b.lb; ub = meet_ub a.ub b.ub; nz = false }

(* ----- syntactic paths -----

   Facts attach to syntactic keys: [x] (unique-stamped), [!r],
   [t.grid.bw].  [float_of_int] is transparent so an [n > 0] guard on
   an int dominates a [float_of_int n] divisor. *)

let rec key_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) -> Some (Ident.unique_name id)
  | Texp_ident (p, _, _) -> Some (Path.name p)
  | Texp_field (e1, _, ld) ->
      Option.map (fun k -> k ^ "." ^ ld.Types.lbl_name) (key_of e1)
  | Texp_apply (f, args) -> (
      match (callee_name f, nolabel_args args) with
      | Some "!", [ x ] -> Option.map (fun k -> "!" ^ k) (key_of x)
      | Some ("float_of_int" | "Float.of_int"), [ x ] -> key_of x
      | ( Some
            ("Array.length" | "List.length" | "String.length" | "Bytes.length"),
          [ x ] ) ->
          Option.map (fun k -> "#" ^ k) (key_of x)
      | _ -> None)
  | _ -> None

(* human-readable spelling for messages (no ident stamps) *)
let rec desc_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (strip_stdlib (Path.name p))
  | Texp_field (e1, _, ld) -> (
      match desc_of e1 with
      | Some d -> Some (d ^ "." ^ ld.Types.lbl_name)
      | None -> Some ("_." ^ ld.Types.lbl_name))
  | Texp_apply (f, args) -> (
      match (callee_name f, nolabel_args args) with
      | Some "!", [ x ] -> Option.map (fun d -> "!" ^ d) (desc_of x)
      | Some ("float_of_int" | "Float.of_int"), [ x ] ->
          Option.map (fun d -> "float_of_int " ^ d) (desc_of x)
      | Some (("Array.length" | "List.length") as op), [ x ] ->
          Option.map (fun d -> op ^ " " ^ d) (desc_of x)
      | _ -> None)
  | _ -> None

let desc_or e = Option.value ~default:"this expression" (desc_of e)

(* [Float.equal x y] types its arguments as the unexpanded alias
   [Stdlib.Float.t], so accept both spellings *)
let is_float_ty ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
      match strip_stdlib (Path.name p) with
      | "float" | "Float.t" -> true
      | _ -> false)
  | _ -> false

(* does evaluating [e] unconditionally raise? (early-exit guards) *)
let rec always_raises (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (f, _) -> (
      match callee_name f with
      | Some ("raise" | "raise_notrace" | "failwith" | "invalid_arg") -> true
      | _ -> false)
  | Texp_sequence (_, e2) -> always_raises e2
  | Texp_let (_, _, body) -> always_raises body
  | Texp_assert ({ Typedtree.exp_desc = Texp_construct (_, c, _); _ }, _) ->
      String.equal c.Types.cstr_name "false"
  | _ -> false

type facts = (string * rank) list

let add_fact env ((k : string), r) =
  SMap.update k (function None -> Some r | Some r0 -> Some (meet r0 r)) env

let add_facts env fs = List.fold_left add_fact env fs

(* ----- ranking expressions under an environment of facts ----- *)

let rec rank_of env (e : Typedtree.expression) : rank =
  let fact =
    match key_of e with Some k -> SMap.find_opt k env | None -> None
  in
  let s = struct_rank env e in
  match fact with Some f -> meet s f | None -> s

and struct_rank env (e : Typedtree.expression) : rank =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_float s) -> point (float_of_string s)
  | Texp_constant (Asttypes.Const_int i) -> point (float_of_int i)
  | Texp_let (Asttypes.Nonrecursive, vbs, body) ->
      rank_of (let_env env vbs) body
  | Texp_sequence (_, e2) -> rank_of env e2
  | Texp_ifthenelse (c, th, Some el) ->
      let tf, ef = cond_facts env c in
      join (rank_of (add_facts env tf) th) (rank_of (add_facts env ef) el)
  | Texp_apply (fexpr, args) -> (
      let nl = nolabel_args args in
      match (callee_name fexpr, nl) with
      | Some ("~-." | "~-"), [ x ] -> neg_rank (rank_of env x)
      | Some ("~+." | "~+"), [ x ] -> rank_of env x
      | Some ("float_of_int" | "Float.of_int"), [ x ] -> rank_of env x
      | Some ("abs_float" | "Float.abs" | "abs" | "Int.abs"), [ x ] ->
          abs_rank (rank_of env x)
      | Some ("sqrt" | "Float.sqrt"), [ x ] -> sqrt_rank (rank_of env x)
      | Some ("exp" | "Float.exp"), [ _ ] -> pos_rank
      | ( Some
            ( "Array.length" | "List.length" | "String.length"
            | "Bytes.length" ),
          [ _ ] ) ->
          nonneg_rank
      | Some ("+." | "+"), [ a; b ] -> add_rank (rank_of env a) (rank_of env b)
      | Some ("-." | "-"), [ a; b ] -> sub_rank (rank_of env a) (rank_of env b)
      | Some ("succ" | "Int.succ"), [ a ] -> add_rank (rank_of env a) (point 1.0)
      | Some ("pred" | "Int.pred"), [ a ] -> sub_rank (rank_of env a) (point 1.0)
      | Some ("*." | "*"), [ _; _ ] -> mult_rank env (flatten_mult [] e)
      | Some ("/." | "/"), [ a; b ] -> div_rank (rank_of env a) (rank_of env b)
      | Some ("Float.max" | "max" | "Int.max"), [ a; b ] ->
          max_rank (rank_of env a) (rank_of env b)
      | Some ("Float.min" | "min" | "Int.min"), [ a; b ] ->
          min_rank (rank_of env a) (rank_of env b)
      | _ -> top)
  | _ -> top

(* the facts after [let x = e and ...]: each variable ranked as its
   right-hand side *)
and let_env env vbs =
  List.fold_left
    (fun acc (vb : Typedtree.value_binding) ->
      match vb.vb_pat.pat_desc with
      | Typedtree.Tpat_var (id, _) ->
          add_fact acc (Ident.unique_name id, rank_of env vb.vb_expr)
      | _ -> acc)
    env vbs

(* a *. b *. c flattens to its factor list whatever way it was
   parenthesized *)
and flatten_mult acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (fexpr, args) -> (
      match (callee_name fexpr, nolabel_args args) with
      | Some ("*." | "*"), [ a; b ] -> flatten_mult (flatten_mult acc a) b
      | _ -> e :: acc)
  | _ -> e :: acc

(* Products: pull constants out; among the residual factors an
   even-paired multiset of syntactic keys ([t.a *. t.a]) is nonneg —
   positive when every factor is provably nonzero.  This is what keeps
   [sqrt ((4. *. t.a *. t.a) +. 1.)] guard-free. *)
and mult_rank env factors =
  let ranked = List.map (fun f -> (key_of f, rank_of env f)) factors in
  let consts, vars =
    List.partition (fun (_, r) -> Option.is_some (const_val r)) ranked
  in
  let c =
    List.fold_left
      (fun acc (_, r) -> acc *. Option.get (const_val r))
      1.0 consts
  in
  match vars with
  | [] -> point c
  | _ :: _ ->
    let keys = List.filter_map fst vars in
    let even_paired =
      List.length keys = List.length vars
      &&
      let sorted = List.sort String.compare keys in
      let rec runs_even = function
        | [] -> true
        | k :: rest ->
            let same, rest' = List.partition (String.equal k) rest in
            (List.length same + 1) mod 2 = 0 && runs_even rest'
      in
      runs_even sorted
    in
    let all_nonneg = List.for_all (fun (_, r) -> is_nonneg r) vars in
    let all_pos = List.for_all (fun (_, r) -> is_pos r) vars in
    let all_nz = List.for_all (fun (_, r) -> is_nonzero r) vars in
    let core =
      if (even_paired && all_nz) || all_pos then pos_rank
      else if even_paired || all_nonneg then nonneg_rank
      else top
    in
    let core = if all_nz then { core with nz = true } else core in
    if Float.equal c 0.0 then point 0.0
    else if c > 0.0 then core
    else neg_rank core

(* ----- guard facts from a condition -----

   Returns (facts-if-true, facts-if-false). *)
and cond_facts env (c : Typedtree.expression) : facts * facts =
  match c.exp_desc with
  | Texp_apply (fexpr, args) -> (
      let nl = nolabel_args args in
      match (callee_name fexpr, nl) with
      | Some "&&", [ a; b ] ->
          let ta, _ = cond_facts env a and tb, _ = cond_facts env b in
          (ta @ tb, [])
      | Some "||", [ a; b ] ->
          let _, ea = cond_facts env a and _, eb = cond_facts env b in
          ([], ea @ eb)
      | Some "not", [ a ] ->
          let t, f = cond_facts env a in
          (f, t)
      | Some op, [ a; b ]
        when List.mem op
               [ ">"; ">="; "<"; "<="; "="; "<>"; "Float.equal"; "Int.equal" ]
        -> (
          let cmp lhs op rhs_c =
            match (key_of lhs, abs_subject lhs) with
            | Some k, None -> compare_facts k op rhs_c
            | _, Some ak -> abs_facts ak op rhs_c
            | None, None -> ([], [])
          in
          match const_val (rank_of env b) with
          | Some cb -> cmp a op cb
          | None -> (
              match const_val (rank_of env a) with
              | Some ca -> cmp b (flip_op op) ca
              | None -> ([], [])))
      | _ -> ([], []))
  | _ -> ([], [])

(* [abs_float x] / [Float.abs x] compared against a constant *)
and abs_subject (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (fexpr, args) -> (
      match (callee_name fexpr, nolabel_args args) with
      | Some ("abs_float" | "Float.abs" | "abs" | "Int.abs"), [ x ] -> key_of x
      | _ -> None)
  | _ -> None

(* facts for [k op c] *)
and compare_facts k op c =
  let lb strict = [ (k, { top with lb = Some { bv = c; strict } }) ] in
  let ub strict = [ (k, { top with ub = Some { bv = c; strict } }) ] in
  match op with
  | ">" -> (lb true, ub false)
  | ">=" -> (lb false, ub true)
  | "<" -> (ub true, lb false)
  | "<=" -> (ub false, lb true)
  | "=" | "Float.equal" | "Int.equal" ->
      ([ (k, point c) ], if Float.equal c 0.0 then [ (k, nz_rank) ] else [])
  | "<>" ->
      ((if Float.equal c 0.0 then [ (k, nz_rank) ] else []), [ (k, point c) ])
  | _ -> ([], [])

(* facts for [|x| op c] on x's key *)
and abs_facts k op c =
  let nz = [ (k, nz_rank) ] in
  match op with
  | ">" when c >= 0.0 -> (nz, [])
  | ">=" when c > 0.0 -> (nz, [])
  | "<" when c > 0.0 -> ([], nz)
  | "<=" when c >= 0.0 -> ([], nz)
  | "<>" when Float.equal c 0.0 -> (nz, [])
  | "=" when Float.equal c 0.0 -> ([], nz)
  | _ -> ([], [])

(* [c op x] mirrored to [x op' c] *)
and flip_op = function
  | ">" -> "<"
  | ">=" -> "<="
  | "<" -> ">"
  | "<=" -> ">="
  | op -> op

(* ----- ref cells -----

   [!r] gets the join of the init rank and every assigned rank
   ([Ir.body_facts] collects the cells); refs touched by [incr] lose
   their upper bound, [decr] their lower, so the fixpoint converges.
   Guard facts on [!r] later meet into this (accepting the usual
   flow-insensitivity on mutation between guard and use — a documented
   precision bias, not a soundness claim). *)
let ref_env base_env cells =
  let round env =
    List.fold_left
      (fun acc (un, c) ->
        let r0 = rank_of base_env c.rc_init in
        let r =
          List.fold_left
            (fun acc_r rhs -> join acc_r (rank_of env rhs))
            r0 c.rc_sets
        in
        let r = if c.rc_incr then { r with ub = None } else r in
        let r = if c.rc_decr then { r with lb = None } else r in
        add_fact acc ("!" ^ un, r))
      base_env cells
  in
  let rec go env n =
    if n = 0 then env
    else
      let env' = round env in
      if SMap.equal rank_equal env env' then env' else go env' (n - 1)
  in
  (* seed with the init ranks alone so round 1 ranks assignment RHSs
     against the inits, not against top *)
  let seed =
    List.fold_left
      (fun acc (un, c) -> add_fact acc ("!" ^ un, rank_of base_env c.rc_init))
      base_env cells
  in
  go seed 6

(* ----- interprocedural N2 state ----- *)

type obligation = {
  ob_req : [ `Nonzero | `Pos ];
  ob_name : string;  (* parameter display name, for messages *)
  ob_trace : string list;  (* forwarding chain, origin last *)
}

type arginfo = {
  ai_nz : bool;  (* argument rank proves nonzero at the call site *)
  ai_pos : bool;
  ai_param : int option;  (* argument is a bare parameter of the caller *)
  ai_desc : string;
}

type callrec = {
  cl_caller : string;
  cl_file : string;
  cl_line : int;
  cl_col : int;
  cl_callee : string;
  cl_args : (Asttypes.arg_label * arginfo option) list;
}

(* One function of the numeric scope (N1/N2) under analysis *)
type ctx = {
  c_key : string;
  c_file : string;
  c_uc : unit_ctx;
  c_body : body;
  c_known : SSet.t;
  c_recursive : bool;
  c_numeric : bool;  (* N3 active *)
  c_emit : finding -> unit;
  c_obls : (int * obligation) list SMap.t ref;  (* fn key -> obligations *)
  c_calls : callrec list ref;
}

let emit_at ctx (loc : Location.t) rule message trace =
  ctx.c_emit (finding ~file:ctx.c_file ~trace loc rule message)

(* The function parameter [e] names, with its level *)
let param_of ctx e =
  match key_of e with
  | Some k ->
      List.find_opt
        (fun (id, _) -> String.equal (Ident.unique_name id) k)
        ctx.c_body.b_spine.sp_params
  | None -> None

let add_obligation ctx idx ob =
  let cur = Option.value ~default:[] (SMap.find_opt ctx.c_key !(ctx.c_obls)) in
  if not (List.mem_assoc idx cur) then
    ctx.c_obls := SMap.add ctx.c_key ((idx, ob) :: cur) !(ctx.c_obls)

(* ----- N1 ----- *)

let eq_ops = [ "="; "<>"; "=="; "!="; "compare"; "Float.equal"; "Float.compare" ]

let is_const (e : Typedtree.expression) =
  match e.exp_desc with Texp_constant _ -> true | _ -> false

(* The Stdlib-stripped name of a call key under Stdlib: a
   user-defined [( = )], local or module-level, is not Stdlib's *)
let stdlib_name key =
  if String.starts_with ~prefix:"Stdlib." key then Some (strip_stdlib key)
  else None

(* Every equality call inside condition [c], read from the body's call
   references *)
let n1_check_cond ctx ~what (c : Typedtree.expression) =
  List.iter
    (fun r ->
      match (r.r_args, stdlib_name r.r_key) with
      | Some args, Some op when loc_within c.exp_loc r.r_loc -> (
          match nolabel_args args with
          | [ a; b ]
            when List.mem op eq_ops
                 && is_float_ty a.exp_type
                 && not (is_const a && is_const b) ->
              emit_at ctx r.r_loc N1
                (Printf.sprintf
                   "exact float equality (%s) as a %s: bit-for-bit \
                    convergence tests are numerically unstable; compare \
                    |a - b| against an epsilon or add a reasoned allow"
                   op what)
                [
                  Printf.sprintf
                    "%s compares computed floats for exact equality" what;
                ]
          | _ -> ())
      | _ -> ())
    ctx.c_body.b_refs

let branch_calls_self ctx (e : Typedtree.expression) =
  SSet.mem ctx.c_key (callees ~within:e.exp_loc ctx.c_body)

(* ----- N2 ----- *)

type n2_op = Op_div | Op_sqrt | Op_log

let n2_requirement = function
  | Op_div -> ("nonzero", fun r -> is_nonzero r)
  | Op_sqrt -> ("nonnegative", fun r -> is_nonneg r)
  | Op_log -> ("positive", fun r -> is_pos r)

let n2_op_name = function
  | Op_div -> "float division"
  | Op_sqrt -> "sqrt"
  | Op_log -> "log"

let n2_check ctx env (app : Typedtree.expression) op operand =
  let req_name, satisfies = n2_requirement op in
  let r = rank_of env operand in
  if satisfies r then ()
  else
    match (param_of ctx operand, op) with
    | Some (id, idx), (Op_div | Op_log) ->
        (* bare parameter: the caller owes the proof *)
        let name = Ident.name id in
        let line, _ = pos_of app.exp_loc in
        add_obligation ctx idx
          {
            ob_req = (if op = Op_log then `Pos else `Nonzero);
            ob_name = name;
            ob_trace =
              [
                Printf.sprintf
                  "%s applies %s to its parameter '%s' (argument %d) at \
                   %s:%d with no dominating guard"
                  ctx.c_key (n2_op_name op) name (idx + 1) ctx.c_file line;
              ];
          }
    | _ ->
        emit_at ctx app.exp_loc N2
          (Printf.sprintf
             "unguarded %s: %s is not proven %s on any path from the \
              function entry; dominate it with a zero/sign guard, clamp \
              with Float.max, or add a reasoned allow"
             (n2_op_name op) (desc_or operand) req_name)
          [
            Printf.sprintf
              "no %s guard dominates %s between the entry of %s and this %s"
              req_name (desc_or operand) ctx.c_key (n2_op_name op);
          ]

let record_call ctx env (app : Typedtree.expression) p args =
  match resolve_call_key ctx.c_uc p with
  | Some key when SSet.mem key ctx.c_known ->
      let info (e : Typedtree.expression) =
        let r = rank_of env e in
        {
          ai_nz = is_nonzero r;
          ai_pos = is_pos r;
          ai_param = Option.map snd (param_of ctx e);
          ai_desc = desc_or e;
        }
      in
      let line, col = pos_of app.exp_loc in
      ctx.c_calls :=
        {
          cl_caller = ctx.c_key;
          cl_file = ctx.c_file;
          cl_line = line;
          cl_col = col;
          cl_callee = key;
          cl_args =
            List.map
              (fun ((l : Asttypes.arg_label), a) -> (l, Option.map info a))
              args;
        }
        :: !(ctx.c_calls)
  | _ -> ()

(* ----- N3 ----- *)

let lambda_is_float_add ctx (f : Typedtree.expression) =
  match f.exp_desc with
  | Texp_ident (p, _, _) ->
      List.mem (strip_stdlib (Path.name p)) [ "+."; "-." ]
  | Texp_function _ -> (
      match (spine_in ctx.c_body f).sp_body.exp_desc with
      | Texp_apply (fexpr, _) -> (
          match callee_name fexpr with
          | Some ("+." | "-.") -> true
          | _ -> false)
      | _ -> false)
  | _ -> false

let n3_check ctx (app : Typedtree.expression) h nl =
  match (h, nl) with
  | ":=", [ { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ }; rhs ] -> (
      match rhs.exp_desc with
      | Texp_apply (fexpr, args) -> (
          match (callee_name fexpr, nolabel_args args) with
          | Some ("+." | "-."), [ a; b ] ->
              let is_deref_of (e : Typedtree.expression) =
                match e.exp_desc with
                | Texp_apply (f2, args2) -> (
                    match (callee_name f2, nolabel_args args2) with
                    | ( Some "!",
                        [
                          {
                            exp_desc = Texp_ident (Path.Pident id2, _, _);
                            _;
                          };
                        ] ) ->
                        Ident.same id id2
                    | _ -> false)
                | _ -> false
              in
              if is_deref_of a || is_deref_of b then
                emit_at ctx app.exp_loc N3
                  (Printf.sprintf
                     "non-compensated float accumulation into '%s' inside a \
                      [@@placer_lint.numeric] function; use the Kahan \
                      helpers Vec.ksum/Vec.kdot or add a reasoned allow"
                     (Ident.name id))
                  []
          | _ -> ())
      | _ -> ())
  | ("List.fold_left" | "Array.fold_left"), f :: _
    when lambda_is_float_add ctx f ->
      emit_at ctx app.exp_loc N3
        (Printf.sprintf
           "%s with a bare (+.) accumulator inside a [@@placer_lint.numeric] \
            function loses low-order bits; use the Kahan helpers \
            Vec.ksum/Vec.kdot or add a reasoned allow"
           h)
        []
  | _ -> ()

(* ----- the main intraprocedural walk ----- *)

let rec scan ctx env (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_let (Asttypes.Nonrecursive, vbs, body) ->
      List.iter (fun (vb : Typedtree.value_binding) -> scan ctx env vb.vb_expr) vbs;
      scan ctx (let_env env vbs) body
  | Texp_let (Asttypes.Recursive, vbs, body) ->
      List.iter (fun (vb : Typedtree.value_binding) -> scan ctx env vb.vb_expr) vbs;
      scan ctx env body
  | Texp_sequence (e1, e2) ->
      scan ctx env e1;
      let env' =
        match e1.exp_desc with
        | Texp_ifthenelse (c, th, None) when always_raises th ->
            add_facts env (snd (cond_facts env c))
        | _ -> env
      in
      scan ctx env' e2
  | Texp_ifthenelse (c, th, el) ->
      scan ctx env c;
      if
        ctx.c_recursive
        && (branch_calls_self ctx th
           || match el with Some b -> branch_calls_self ctx b | None -> false)
      then n1_check_cond ctx ~what:"recursive termination test" c;
      let tf, ef = cond_facts env c in
      scan ctx (add_facts env tf) th;
      (match el with Some b -> scan ctx (add_facts env ef) b | None -> ())
  | Texp_while (c, body) ->
      n1_check_cond ctx ~what:"while-loop exit condition" c;
      scan ctx env c;
      scan ctx (add_facts env (fst (cond_facts env c))) body
  | Texp_apply (fexpr, args) ->
      (match fexpr.exp_desc with
      | Texp_ident (p, _, _) ->
          let h = strip_stdlib (Path.name p) in
          let nl = nolabel_args args in
          (match (h, nl) with
          | "/.", [ _; d ] -> n2_check ctx env e Op_div d
          | ("sqrt" | "Float.sqrt"), [ x ] -> n2_check ctx env e Op_sqrt x
          | ("log" | "log10" | "Float.log" | "Float.log10"), [ x ] ->
              n2_check ctx env e Op_log x
          | _ -> ());
          record_call ctx env e p args;
          if ctx.c_numeric then n3_check ctx e h nl
      | _ -> ());
      scan ctx env fexpr;
      List.iter (fun (_, a) -> Option.iter (scan ctx env) a) args
  | Texp_function { cases; _ } ->
      List.iter
        (fun (c : Typedtree.value Typedtree.case) ->
          Option.iter (scan ctx env) c.c_guard;
          scan ctx env c.c_rhs)
        cases
  | Texp_match (scrut, cases, _) ->
      scan ctx env scrut;
      List.iter
        (fun (c : Typedtree.computation Typedtree.case) ->
          Option.iter (scan ctx env) c.c_guard;
          scan ctx env c.c_rhs)
        cases
  | _ ->
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e' -> scan ctx env e');
        }
      in
      Tast_iterator.default_iterator.expr it e

(* ----- N4: pool results folded in hash order -----

   Read from the body's facts in one forward pass over its [let]
   definitions and Stdlib calls, in source order: a [let] taints its
   names when its value is [Pool.map]/[Pool.map_list] results or uses
   a tainted name, [Hashtbl.add]/[replace] taints the table it stores
   such a value into (the pool call itself included), a lambda passed
   to Stdlib [Array]/[List] [iter]/[iteri] over such a value has its
   element parameter tainted, and a
   [Hashtbl.fold]/[iter] over a tainted value whose arguments
   accumulate with [+.]/[-.] is a finding. Taint flows forward only: a
   fold placed before the tainting [add] stays quiet. Not followed:
   values stored through [|>]/[@@] (the type checker turns
   [v |> Hashtbl.add tbl k] into an application of the partial call,
   which has no call reference of its own), or through the parameters
   of a lambda that is named first or handed to any other iterator. *)

let rec head_call (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_apply (fexpr, _) -> callee_name fexpr
  | Texp_let (_, _, body) | Texp_sequence (_, body) -> head_call body
  | _ -> None

let n4_scan ~file emit b =
  let line loc = fst (pos_of loc) in
  let start (loc : Location.t) = loc.loc_start.pos_cnum in
  let calls =
    List.filter_map
      (fun r ->
        match (r.r_args, stdlib_name r.r_key) with
        | Some args, Some h -> Some (r.r_loc, `Call (h, nolabel_args args))
        | _ -> None)
      b.b_refs
  in
  let lets =
    SMap.fold
      (fun un (rhs : Typedtree.expression) acc ->
        (rhs.exp_loc, `Let (un, rhs)) :: acc)
      b.b_defs []
  in
  (* a [let] sorts before a call that starts where its value does *)
  let events =
    List.stable_sort
      (fun (l1, _) (l2, _) -> Int.compare (start l1) (start l2))
      (lets @ calls)
  in
  let tainted = ref SMap.empty in
  let taint un origin = tainted := SMap.add un origin !tainted in
  let taint_of (e : Typedtree.expression) =
    List.find_map
      (fun o -> SMap.find_opt o.o_un !tainted)
      (free_in b e.exp_loc)
  in
  let accumulates (a : Typedtree.expression) =
    List.exists
      (function
        | l, `Call (("+." | "-."), _) -> loc_within a.exp_loc l
        | _ -> false)
      calls
  in
  (* [Some "Pool.map"] when [e] is a call returning pool results *)
  let pool_results (e : Typedtree.expression) =
    match Option.bind (head_call e) fanout_of with
    | Some pool_fn when not (String.equal pool_fn "Pool.run_all") ->
        Some pool_fn
    | _ -> None
  in
  (* the taint [v] carries: it is a pool call or uses a tainted name *)
  let origin (v : Typedtree.expression) =
    match pool_results v with
    | Some pool_fn ->
        Some
          (Printf.sprintf "%s results (task order) at %s:%d" pool_fn file
             (line v.exp_loc))
    | None -> taint_of v
  in
  (* table [id] stores [values] by [h]: the first pool call or tainted
     value among them taints the table *)
  let store h id values loc =
    Option.iter
      (fun origin ->
        taint (Ident.unique_name id)
          (Printf.sprintf "%s; stored into a hash table by %s at %s:%d"
             origin h file (line loc)))
      (List.find_map origin values)
  in
  List.iter
    (fun (loc, ev) ->
      match ev with
      | `Let (un, rhs) -> (
          match pool_results rhs with
          | Some pool_fn ->
              let name =
                List.find_map
                  (fun o -> if String.equal o.o_un un then Some o.o_name else None)
                  b.b_idents
              in
              taint un
                (Printf.sprintf "%s results (task order) bound to '%s' at %s:%d"
                   pool_fn (Option.value name ~default:un) file (line loc))
          | None -> Option.iter (taint un) (taint_of rhs))
      | `Call
          ( (("Hashtbl.add" | "Hashtbl.replace") as h),
            { Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ }
            :: rest ) ->
          store h id rest loc
      | `Call
          ( (("Array.iter" | "Array.iteri" | "List.iter" | "List.iteri") as h),
            [ ({ Typedtree.exp_desc = Texp_function _; _ } as lam); coll ] ) ->
          (* the element is the lambda's first parameter, or its second
             after an [iteri] index *)
          let elt = if String.ends_with ~suffix:"iteri" h then 1 else 0 in
          Option.iter
            (fun o ->
              List.iter
                (fun (id, idx) ->
                  if idx = elt then
                    taint (Ident.unique_name id)
                      (Printf.sprintf "%s; visited by %s at %s:%d" o h file
                         (line loc)))
                (spine_in b lam).sp_params)
            (origin coll)
      | `Call ((("Hashtbl.fold" | "Hashtbl.iter") as h), nl) -> (
          match List.find_map taint_of nl with
          | Some origin when List.exists accumulates nl ->
              emit
                (finding ~file loc N4
                   ~trace:
                     [
                       Printf.sprintf
                         "%s at %s:%d folds them with a float accumulation" h
                         file (line loc);
                       origin;
                     ]
                   (Printf.sprintf
                      "float reduction over Pool results in hash order: %s \
                       visits entries in an order that differs between runs \
                       and from task order, so parallel accumulation \
                       diverges from serial; fold the pool results in task \
                       (index) order instead"
                      h))
          | _ -> ())
      | `Call _ -> ())
    events

(* ----- driver ----- *)

let check (prog : Effects.program) : finding list =
  let out = ref [] in
  let obls : (int * obligation) list SMap.t ref = ref SMap.empty in
  let calls : callrec list ref = ref [] in
  (* pass 1: intraprocedural scan of every function in scope *)
  List.iter
    (fun h ->
      if not (prog.Effects.pr_sanctioned h.h_uc.uc_file) then begin
        let base_env =
          SMap.fold
            (fun un (rhs : Typedtree.expression) acc ->
              match const_val (rank_of SMap.empty rhs) with
              | Some c -> SMap.add un (point c) acc
              | None -> acc)
            h.h_defs SMap.empty
        in
        List.iter
          (fun fn ->
            let scoped = fn.f_numeric || in_numeric_dirs fn.f_file in
            if scoped then begin
              let ctx =
                {
                  c_key = fn.f_key;
                  c_file = fn.f_file;
                  c_uc = h.h_uc;
                  c_body = fn.f_body;
                  c_known = prog.Effects.pr_known;
                  c_recursive = SSet.mem fn.f_key (callees fn.f_body);
                  c_numeric = fn.f_numeric;
                  c_emit = (fun f -> out := f :: !out);
                  c_obls = obls;
                  c_calls = calls;
                }
              in
              scan ctx
                (ref_env base_env fn.f_body.b_cells)
                fn.f_body.b_spine.sp_body
            end)
          h.h_fns
      end)
    prog.Effects.pr_harvested;
  (* pass 2: N4 over every function and script of every unit *)
  List.iter
    (fun h ->
      if not (prog.Effects.pr_sanctioned h.h_uc.uc_file) then begin
        let file = h.h_uc.uc_file in
        let emit f = out := f :: !out in
        List.iter (fun fn -> n4_scan ~file emit fn.f_body) h.h_fns;
        List.iter (n4_scan ~file emit) h.h_scripts
      end)
    prog.Effects.pr_harvested;
  (* pass 3: propagate N2 obligations through call sites *)
  let labels_of = Effects.labels_of prog.Effects.pr_eng in
  let satisfied info = function
    | `Nonzero -> info.ai_nz
    | `Pos -> info.ai_pos
  in
  let obligations key = Option.value ~default:[] (SMap.find_opt key !obls) in
  (* [f cr j ob info] for every call argument [info] that fails
     obligation [ob] on parameter [j] of the callee *)
  let unmet f =
    List.iter
      (fun cr ->
        List.iter
          (fun (j, ob) ->
            match arg_for_param (labels_of cr.cl_callee) cr.cl_args j with
            | Some info when not (satisfied info ob.ob_req) -> f cr j ob info
            | _ -> ())
          (obligations cr.cl_callee))
      !calls
  in
  let changed = ref true in
  while !changed do
    changed := false;
    unmet (fun cr j ob info ->
        match info.ai_param with
        | Some i when not (List.mem_assoc i (obligations cr.cl_caller)) ->
            let pname =
              match
                Option.bind
                  (SMap.find_opt cr.cl_caller
                     prog.Effects.pr_eng.Effects.eg_fns)
                  (fun f ->
                    List.find_opt
                      (fun (_, k) -> k = i)
                      f.f_body.b_spine.sp_params)
              with
              | Some (id, _) -> Ident.name id
              | None -> Printf.sprintf "#%d" (i + 1)
            in
            obls :=
              SMap.add cr.cl_caller
                (( i,
                   {
                     ob_req = ob.ob_req;
                     ob_name = pname;
                     ob_trace =
                       Printf.sprintf
                         "%s forwards its parameter '%s' to %s (argument %d) \
                          at %s:%d"
                         cr.cl_caller pname cr.cl_callee (j + 1) cr.cl_file
                         cr.cl_line
                       :: ob.ob_trace;
                   } )
                :: obligations cr.cl_caller)
                !obls;
            changed := true
        | _ -> ())
  done;
  (* pass 4: call sites that neither discharge nor forward an
     obligation are N2 findings with the full forwarding chain *)
  unmet (fun cr j ob info ->
      let forwarded =
        match info.ai_param with
        | Some i -> List.mem_assoc i (obligations cr.cl_caller)
        | None -> false
      in
      if not forwarded then
        out :=
          {
            file = cr.cl_file;
            line = cr.cl_line;
            col = cr.cl_col;
            rule = N2;
            message =
              Printf.sprintf
                "call passes %s to %s whose parameter '%s' (argument %d) \
                 must be %s; guard the value before the call or add a \
                 reasoned allow"
                info.ai_desc cr.cl_callee ob.ob_name (j + 1)
                (match ob.ob_req with
                | `Nonzero -> "nonzero"
                | `Pos -> "positive");
            trace =
              Printf.sprintf "%s:%d passes %s as argument %d of %s" cr.cl_file
                cr.cl_line info.ai_desc (j + 1) cr.cl_callee
              :: ob.ob_trace;
          }
          :: !out);
  (* publish surviving obligations on the effect summaries *)
  let sums = prog.Effects.pr_eng.Effects.eg_sums in
  sums :=
    SMap.mapi
      (fun key (s : Effects.Summaries.summary) ->
        match SMap.find_opt key !obls with
        | Some l ->
            {
              s with
              Effects.Summaries.s_nonzero_args =
                List.sort_uniq Int.compare (List.map fst l);
            }
        | None -> s)
      !sums;
  List.rev !out
