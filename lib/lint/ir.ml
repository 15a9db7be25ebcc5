(* The lint core: the one form every placer-lint pass reads.

   [Lint] loads each compilation unit once ([load]), walks its
   structure once ([harvest]) and hands the harvested units to the
   passes: its own per-expression rules (D1-D4, F1, H1), [Effects]
   (P1/P2/R1 and the effect summaries), [Deps] (C1/C2/A1) and
   [Numeric] (N1-N4). This module owns what they share: the rule and
   finding types every pass emits, unit loading, the structure walk,
   name normalisation and call-key resolution, the Typedtree helpers
   (callee names, the allocation classifier, argument matching,
   [pos_of]), the stdlib name tables, and the per-body facts: one walk
   over every function and script ([body_facts]) records its spine and
   the spines of its lambdas, its resolved call references, let-bound
   definitions, ref cells, allocation sites and local identifier uses,
   so no pass walks a body again to recover them. *)

module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* ----- rules and findings ----- *)

type rule =
  | D1
  | D2
  | D3
  | D4
  | F1
  | H1
  | N1
  | N2
  | N3
  | N4
  | P1
  | P2
  | R1
  | C1
  | C2
  | A1
  | Bad_suppress

let all_rules =
  [ D1; D2; D3; D4; F1; H1; N1; N2; N3; N4; P1; P2; R1; C1; C2; A1; Bad_suppress ]

let rule_name = function
  | D1 -> "D1"
  | D2 -> "D2"
  | D3 -> "D3"
  | D4 -> "D4"
  | F1 -> "F1"
  | H1 -> "H1"
  | N1 -> "N1"
  | N2 -> "N2"
  | N3 -> "N3"
  | N4 -> "N4"
  | P1 -> "P1"
  | P2 -> "P2"
  | R1 -> "R1"
  | C1 -> "C1"
  | C2 -> "C2"
  | A1 -> "A1"
  | Bad_suppress -> "SUPPRESS"

(* "SUPPRESS" names no rule a comment can allow *)
let rule_of_string s =
  List.find_opt
    (fun r -> r <> Bad_suppress && String.equal (rule_name r) s)
    all_rules

(* One-line rule documentation, shared by --help-style output and the
   SARIF rule table. *)
let rule_doc = function
  | D1 -> "wall-clock read outside lib/telemetry"
  | D2 -> "Stdlib.Random outside lib/numerics/rng.ml"
  | D3 -> "hash-order iteration (Hashtbl.iter/fold/hash)"
  | D4 -> "module-level mutable state outside lib/pool"
  | F1 -> "polymorphic compare instantiated at a float-containing type"
  | H1 -> "Obj.magic or catch-all exception handler"
  | N1 -> "exact float equality as a loop-exit or convergence test"
  | N2 -> "unguarded /. , sqrt or log (operand not dominated by a zero/sign guard)"
  | N3 -> "non-compensated float accumulation in a [@@placer_lint.numeric] function"
  | N4 -> "float reduction over Pool results folded in hash (non-task) order"
  | P1 -> "Pool task writes shared (module-level) mutable state"
  | P2 -> "Pool task writes a mutable captured from the enclosing scope"
  | R1 -> "Pool task consumes an Rng.t shared across tasks (not pre-split)"
  | C1 -> "cached computation reads ambient state not captured by its key"
  | C2 -> "thunk input that influences the cached value is missing from the key"
  | A1 -> "heap allocation inside a [@@placer_lint.hot] function"
  | Bad_suppress -> "malformed placer-lint suppression comment"

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
  trace : string list;
      (* flow trace shown by --explain (C1/C2, N2, N4); [] otherwise *)
}

let pos_of (loc : Location.t) =
  let p = loc.Location.loc_start in
  (p.Lexing.pos_lnum, p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)

let finding ~file ?(trace = []) loc rule message =
  let line, col = pos_of loc in
  { file; line; col; rule; message; trace }

(* Report order: file, line, col, rule name, message. [sort_findings]
   also drops repeats of one finding (a site reached through both a
   function and a script walk, a nested fan-out's task analysed from
   the enclosing walk and again on its own); the first one emitted
   stays. *)
let compare_finding a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> (
          match Int.compare a.col b.col with
          | 0 -> (
              match String.compare (rule_name a.rule) (rule_name b.rule) with
              | 0 -> String.compare a.message b.message
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let sort_findings fs =
  List.stable_sort compare_finding fs
  |> List.fold_left
       (fun acc f ->
         match acc with
         | prev :: _ when compare_finding prev f = 0 -> acc
         | _ -> f :: acc)
       []
  |> List.rev

(* ----- names ----- *)

(* "Annealing__Island", "Annealing.Island" and the alias spelling
   "Annealing__.Island" all occur as path prefixes depending on how a
   use reaches the module; collapse every double-underscore (and a dot
   right after it) to a single dot so one canonical key matches all
   three. *)
let normalize s =
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2;
      if !i < n && s.[!i] = '.' then incr i
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let strip_stdlib n =
  if String.starts_with ~prefix:"Stdlib." n then
    String.sub n 7 (String.length n - 7)
  else n

(* ----- stdlib name tables (Stdlib-stripped spellings) ----- *)

(* D1 and the C1 "clock" ambient input *)
let clock_names =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.times"; "Sys.time" ]

(* D3 and the C1 "hash-order" ambient input *)
let hash_order_names = [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.hash" ]

(* the process-global RNG: D2, the summaries' [rng] flag and the C1
   "rng" ambient input *)
let is_global_rng n = String.starts_with ~prefix:"Random." (strip_stdlib n)

(* Allocating stdlib entry points, each flagged when its result is
   fresh mutable state. The mutable ones are D4's creators (a
   module-level binding that calls one holds shared state) and the
   escape pass's tracked allocations; A1 counts every entry. *)
let allocs =
  [
    ("ref", true); ("Array.make", true); ("Array.init", true);
    ("Array.create_float", true); ("Array.make_matrix", true);
    ("Array.copy", true); ("Array.of_list", true); ("Array.append", true);
    ("Array.concat", true); ("Array.sub", true); ("Array.map", true);
    ("Array.mapi", true); ("Bytes.create", true); ("Bytes.make", true);
    ("Bytes.copy", true); ("Bytes.of_string", true); ("Buffer.create", true);
    ("Hashtbl.create", true); ("Hashtbl.copy", true); ("Atomic.make", true);
    ("Queue.create", true); ("Queue.copy", true); ("Stack.create", true);
    ("Array.to_list", false); ("Array.of_seq", false); ("List.init", false);
    ("List.map", false); ("List.mapi", false); ("List.map2", false);
    ("List.append", false); ("List.concat", false);
    ("List.concat_map", false); ("List.rev", false);
    ("List.rev_append", false); ("List.sort", false);
    ("List.stable_sort", false); ("List.fast_sort", false);
    ("List.filter", false); ("List.filter_map", false);
    ("List.of_seq", false); ("String.concat", false); ("String.sub", false);
    ("String.make", false); ("String.init", false); ("String.map", false);
    ("String.split_on_char", false); ("Printf.sprintf", false);
    ("Printf.ksprintf", false); ("Format.sprintf", false);
    ("Format.asprintf", false); ("^", false); ("@", false);
    ("Bytes.to_string", false); ("Bytes.sub_string", false);
    ("Buffer.contents", false);
  ]

let alloc_table =
  List.fold_left (fun m (n, mut) -> SMap.add n mut m) SMap.empty allocs

let is_alloc n = SMap.mem n alloc_table
let is_mutable_alloc n = SMap.find_opt n alloc_table = Some true

(* Imperative stdlib entry points, with the 0-based positions (among
   Nolabel arguments) of the arguments they mutate. The ref-cell
   writes come first: their target is a bare [ref], which the
   dependence pass does not count as a read and the numeric pass
   ranks. *)
let ref_writes = [ (":=", [ 0 ]); ("incr", [ 0 ]); ("decr", [ 0 ]) ]

let write_prims =
  ref_writes
  @ [
      ("Array.set", [ 0 ]); ("Array.unsafe_set", [ 0 ]); ("Array.fill", [ 0 ]);
      ("Array.blit", [ 2 ]); ("Array.sort", [ 1 ]); ("Array.stable_sort", [ 1 ]);
      ("Array.fast_sort", [ 1 ]);
      ("Bytes.set", [ 0 ]); ("Bytes.unsafe_set", [ 0 ]); ("Bytes.fill", [ 0 ]);
      ("Bytes.blit", [ 2 ]); ("Bytes.blit_string", [ 2 ]);
      ("Hashtbl.add", [ 0 ]); ("Hashtbl.replace", [ 0 ]);
      ("Hashtbl.remove", [ 0 ]); ("Hashtbl.clear", [ 0 ]);
      ("Hashtbl.reset", [ 0 ]); ("Hashtbl.filter_map_inplace", [ 1 ]);
      ("Buffer.add_char", [ 0 ]); ("Buffer.add_string", [ 0 ]);
      ("Buffer.add_bytes", [ 0 ]); ("Buffer.add_substring", [ 0 ]);
      ("Buffer.add_subbytes", [ 0 ]); ("Buffer.add_buffer", [ 0 ]);
      ("Buffer.clear", [ 0 ]); ("Buffer.reset", [ 0 ]);
      ("Buffer.truncate", [ 0 ]);
      ("Atomic.set", [ 0 ]); ("Atomic.exchange", [ 0 ]);
      ("Atomic.compare_and_set", [ 0 ]); ("Atomic.fetch_and_add", [ 0 ]);
      ("Atomic.incr", [ 0 ]); ("Atomic.decr", [ 0 ]);
      ("Queue.add", [ 1 ]); ("Queue.push", [ 1 ]); ("Queue.pop", [ 0 ]);
      ("Queue.take", [ 0 ]); ("Queue.clear", [ 0 ]);
      ("Queue.transfer", [ 0; 1 ]);
      ("Stack.push", [ 1 ]); ("Stack.pop", [ 0 ]); ("Stack.clear", [ 0 ]);
    ]

(* The repo's own fan-out entry points: [Some "Pool.map"] when the
   normalized callee name is one. *)
let fanout_of n =
  List.find_opt
    (fun t -> String.equal n t || String.ends_with ~suffix:("." ^ t) n)
    [ "Pool.map"; "Pool.map_list"; "Pool.run_all" ]

(* ----- Typedtree helpers ----- *)

(* The Stdlib-stripped name of an applied identifier: [Some "Array.set"]
   for the head of [Array.set a i v]. *)
let callee_name (f : Typedtree.expression) =
  match f.exp_desc with
  | Texp_ident (p, _, _) -> Some (strip_stdlib (Path.name p))
  | _ -> None

(* The one allocation classifier, over a single node: [Some (what,
   mut)] when evaluating [e] allocates. [what] names the allocation in
   an A1 message ([None]: exempt from A1 — [ref] cells and the static
   [[||]]); [mut] says the result is fresh mutable state (D4's
   creators, the escape pass's tracked allocations). *)
let alloc_of (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_array [] -> Some (None, true)
  | Texp_array _ -> Some (Some "array literal", true)
  | Texp_record { fields; _ } ->
      Some
        ( Some "record",
          Array.exists
            (fun ((ld : Types.label_description), _) ->
              ld.lbl_mut = Asttypes.Mutable)
            fields )
  | Texp_tuple _ -> Some (Some "tuple", false)
  | Texp_construct (_, cd, _ :: _) ->
      Some (Some ("constructor " ^ cd.cstr_name), false)
  | Texp_function _ -> Some (Some "closure", false)
  | Texp_lazy _ -> Some (Some "lazy block", false)
  | Texp_apply (f, _) -> (
      match callee_name f with
      | Some n when is_alloc n ->
          Some
            ( (if String.equal n "ref" then None else Some ("call to " ^ n)),
              is_mutable_alloc n )
      | _ -> None)
  | _ -> None

let mutable_alloc e =
  match alloc_of e with Some (_, m) -> m | None -> false

let nolabel_args args =
  List.filter_map
    (fun ((l : Asttypes.arg_label), a) ->
      match (l, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

let labelled_arg args name =
  List.find_map
    (fun ((l : Asttypes.arg_label), a) ->
      match (l, a) with
      | (Asttypes.Labelled n | Asttypes.Optional n), Some e
        when String.equal n name ->
          Some e
      | _ -> None)
    args

(* The call-site argument feeding parameter [i] of a callee with
   parameter [labels]: labelled parameters match by label, unlabelled
   ones by position among the Nolabel arguments. *)
let arg_for_param labels args i =
  match List.nth_opt labels i with
  | None -> None
  | Some Asttypes.Nolabel ->
      let before = List.filteri (fun j _ -> j < i) labels in
      let k =
        List.length (List.filter (fun l -> l = Asttypes.Nolabel) before)
      in
      List.nth_opt (nolabel_args args) k
  | Some (Asttypes.Labelled name | Asttypes.Optional name) ->
      labelled_arg args name

(* The curried [fun p1 -> fun p2 -> ...] spine of a lambda: per-level
   labels, every bound ident with its 0-based level, and the innermost
   body. Peeling stops at a multi-case or guarded level ([function
   ...]); walkers treat the remaining node as a nested lambda. *)
type spine = {
  sp_labels : Asttypes.arg_label list;
  sp_params : (Ident.t * int) list;
  sp_body : Typedtree.expression;
}

let peel_params e0 =
  let rec go labels params idx (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
      ->
        let here =
          List.map (fun id -> (id, idx)) (Typedtree.pat_bound_idents c_lhs)
        in
        go (arg_label :: labels) (here @ params) (idx + 1) c_rhs
    | _ ->
        {
          sp_labels = List.rev labels;
          sp_params = List.rev params;
          sp_body = e;
        }
  in
  go [] [] 0 e0

(* ----- loading ----- *)

type unit_info = {
  u_file : string;  (* source path as recorded in the .cmt *)
  u_name : string;
  u_str : Typedtree.structure;
}

let load_unit path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Implementation str; cmt_sourcefile; cmt_modname; _ } ->
      let file = Option.value cmt_sourcefile ~default:path in
      (* dune-generated wrapper aliases, named "*.ml-gen", carry no
         checkable code and no source to read suppressions from *)
      if String.ends_with ~suffix:"-gen" file then None
      else Some { u_file = file; u_name = cmt_modname; u_str = str }
  | _ -> None
  (* placer-lint: allow H1 a foreign or truncated .cmt must be skipped, whatever the loader raises *)
  | exception _ -> None

let rec find_cmts acc path =
  if not (Sys.file_exists path) then acc
  else if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left (fun acc n -> find_cmts acc (Filename.concat path n)) acc
  else if
    Filename.check_suffix path ".cmt" || Filename.check_suffix path ".cmti"
  then path :: acc
  else acc

(* A unit seen through both its .cmt and .cmti must be analyzed once:
   drop any .cmti with a sibling .cmt in the scanned set (the
   implementation tree subsumes the interface), then let the per-file
   dedupe in [load] catch the rest. *)
let drop_shadowed_cmtis paths =
  let cmts =
    List.fold_left
      (fun s p -> if Filename.check_suffix p ".cmt" then SSet.add p s else s)
      SSet.empty paths
  in
  List.filter
    (fun p ->
      (not (Filename.check_suffix p ".cmti"))
      || not (SSet.mem (Filename.chop_suffix p ".cmti" ^ ".cmt") cmts))
    paths

(* Every unit under [paths] whose .cmt path and source path [skip]
   rejects. A unit can be seen through several build contexts; each
   source file is loaded once, the alphabetically smallest .cmt path
   winning. *)
let load ~skip paths =
  List.fold_left find_cmts [] paths
  |> List.sort_uniq String.compare |> drop_shadowed_cmtis
  |> List.filter (fun p -> not (skip p))
  |> List.filter_map load_unit
  |> List.filter (fun u -> not (skip u.u_file))
  |> List.fold_left
       (fun (seen, acc) u ->
         if SSet.mem u.u_file seen then (seen, acc)
         else (SSet.add u.u_file seen, u :: acc))
       (SSet.empty, [])
  |> snd |> List.rev

(* ----- units and call-key resolution ----- *)

type unit_ctx = {
  uc_file : string;
  uc_globals : string SMap.t;  (* unique_name -> display name *)
  uc_fn_idents : string SMap.t;  (* unique_name -> canonical fn key *)
  uc_aliases : string SMap.t;  (* local module alias -> normalized target *)
}

(* Rewrite a dotted path through the unit's local module aliases
   ([module GS = Experiments.Gnn_setup] leaves call paths spelled
   "GS.get") and normalize the wrapper underscores away. *)
let resolve_dotted uc n =
  let n =
    match String.index_opt n '.' with
    | Some i -> (
        let head = String.sub n 0 i in
        match SMap.find_opt head uc.uc_aliases with
        | Some tgt -> tgt ^ String.sub n i (String.length n - i)
        | None -> n)
    | None -> n
  in
  normalize n

(* Canonical summary key for a callee path, if it can have one. *)
let resolve_call_key uc (p : Path.t) =
  match p with
  | Path.Pident id -> SMap.find_opt (Ident.unique_name id) uc.uc_fn_idents
  | _ -> Some (resolve_dotted uc (Path.name p))

(* ----- per-body facts -----

   Every function and every script is walked here once; the passes
   read these facts instead of walking the body again. *)

(* An identifier with a call key: a reference is a potential call *)
type reference = {
  r_key : string;
  r_loc : Location.t;  (* the identifier, or the whole application *)
  r_args : (Asttypes.arg_label * Typedtree.expression option) list option;
      (* [Some] for an application headed by the identifier *)
}

(* A let-bound [ref init] cell and every write to it *)
type cell = {
  rc_init : Typedtree.expression;
  rc_sets : Typedtree.expression list;  (* [:=] right-hand sides, last first *)
  rc_incr : bool;
  rc_decr : bool;
}

(* An allocating node ([alloc_of]); the binding's own spine lambdas
   are not sites *)
type alloc_site = {
  a_loc : Location.t;
  a_what : string option;
  a_mutable : bool;
  a_under_fn : bool;  (* below a lambda: allocated per call *)
}

(* A use of a local identifier *)
type occurrence = {
  o_un : string;  (* unique name *)
  o_name : string;
  o_loc : Location.t;
  o_write : bool;  (* the bare target of a ref-cell write *)
}

type body = {
  b_expr : Typedtree.expression;  (* the whole right-hand side *)
  b_spine : spine;  (* of [b_expr]; empty for a non-function *)
  b_lambdas : (Typedtree.expression * spine Lazy.t) list;
      (* every lambda node in the body, with its spine (peeled on
         first use) *)
  b_refs : reference list;  (* in walk order *)
  b_defs : Typedtree.expression SMap.t;
      (* unique name -> right-hand side, for every [let] in the body
         (tuple/record patterns map each bound name to the whole
         right-hand side) *)
  b_cells : (string * cell) list;  (* unique name -> cell, in order *)
  b_allocs : alloc_site list;  (* in walk order *)
  b_idents : occurrence list;
  b_binders : Location.t SMap.t;
      (* unique name -> the pattern binding it, for names bound by a
         [let], [fun], [match], [try] or [for] in the body *)
}

let body_facts uc (e0 : Typedtree.expression) =
  let rec spine_nodes (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { cases; _ } ->
        e
        :: List.concat_map
             (fun (c : Typedtree.value Typedtree.case) -> spine_nodes c.c_rhs)
             cases
    | _ -> []
  in
  let own = spine_nodes e0 in
  let lambdas = ref [] and refs = ref [] and defs = ref SMap.empty in
  let inits = ref [] and sets = ref SMap.empty in
  let incrd = ref SSet.empty and decrd = ref SSet.empty in
  let allocs = ref [] and depth = ref 0 in
  let idents = ref [] and binders = ref SMap.empty and targets = ref [] in
  let bind loc ids =
    List.iter
      (fun id -> binders := SMap.add (Ident.unique_name id) loc !binders)
      ids
  in
  let bind_cases : type k. k Typedtree.case list -> unit =
   fun cases ->
    List.iter
      (fun (c : k Typedtree.case) ->
        bind c.c_lhs.pat_loc (Typedtree.pat_bound_idents c.c_lhs))
      cases
  in
  let reference (e : Typedtree.expression) p args =
    match resolve_call_key uc p with
    | Some key ->
        refs := { r_key = key; r_loc = e.exp_loc; r_args = args } :: !refs
    | None -> ()
  in
  (* a write to a bare ref: [r := rhs], [incr r], [decr r] *)
  let ref_write n args =
    match nolabel_args args with
    | ({ Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ } as tgt)
      :: rest -> (
        targets := tgt :: !targets;
        let un = Ident.unique_name id in
        match (n, rest) with
        | ":=", [ rhs ] ->
            let prev = Option.value ~default:[] (SMap.find_opt un !sets) in
            sets := SMap.add un (rhs :: prev) !sets
        | "incr", [] -> incrd := SSet.add un !incrd
        | "decr", [] -> decrd := SSet.add un !decrd
        | _ -> ())
    | [] | _ :: _ -> ()
  in
  let binding (vb : Typedtree.value_binding) =
    let ids = Typedtree.pat_bound_idents vb.vb_pat in
    bind vb.vb_pat.pat_loc ids;
    List.iter
      (fun id -> defs := SMap.add (Ident.unique_name id) vb.vb_expr !defs)
      ids;
    match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
    | Tpat_var (id, _), Texp_apply (f, args) -> (
        match (callee_name f, nolabel_args args) with
        | Some "ref", [ init ] ->
            inits := (Ident.unique_name id, init) :: !inits
        | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match alloc_of e with
          | Some (what, m) when not (List.memq e own) ->
              allocs :=
                { a_loc = e.exp_loc; a_what = what; a_mutable = m;
                  a_under_fn = !depth > 0 }
                :: !allocs
          | _ -> ());
          (match e.exp_desc with
          | Texp_ident (p, _, _) ->
              reference e p None;
              (match p with
              | Path.Pident id ->
                  idents :=
                    {
                      o_un = Ident.unique_name id;
                      o_name = Ident.name id;
                      o_loc = e.exp_loc;
                      o_write = List.memq e !targets;
                    }
                    :: !idents
              | _ -> ())
          | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as f), args) ->
              reference e p (Some args);
              (match callee_name f with
              | Some n when List.mem_assoc n ref_writes -> ref_write n args
              | _ -> ())
          | Texp_let (_, vbs, _) -> List.iter binding vbs
          | Texp_function { cases; _ } ->
              bind_cases cases;
              lambdas := (e, lazy (peel_params e)) :: !lambdas
          | Texp_match (_, cases, _) -> bind_cases cases
          | Texp_try (_, cases) -> bind_cases cases
          | Texp_for (id, ppat, _, _, _, _) -> bind ppat.ppat_loc [ id ]
          | _ -> ());
          match e.exp_desc with
          | Texp_function _ ->
              incr depth;
              Tast_iterator.default_iterator.expr sub e;
              decr depth
          | _ -> Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e0;
  let cell (un, init) =
    ( un,
      {
        rc_init = init;
        rc_sets = Option.value ~default:[] (SMap.find_opt un !sets);
        rc_incr = SSet.mem un !incrd;
        rc_decr = SSet.mem un !decrd;
      } )
  in
  {
    b_expr = e0;
    b_spine = peel_params e0;
    b_lambdas = !lambdas;
    b_refs = List.rev !refs;
    b_defs = !defs;
    b_cells = List.rev_map cell !inits;
    b_allocs = List.rev !allocs;
    b_idents = List.rev !idents;
    b_binders = !binders;
  }

(* The spine of a lambda node inside [b] *)
let spine_in b (lam : Typedtree.expression) =
  Lazy.force (List.assq lam b.b_lambdas)

let loc_within (outer : Location.t) (l : Location.t) =
  outer.loc_start.pos_cnum <= l.loc_start.pos_cnum
  && l.loc_end.pos_cnum <= outer.loc_end.pos_cnum

(* The call keys [b] references, or only those referenced inside the
   sub-expression at [within] *)
let callees ?within b =
  List.fold_left
    (fun s r ->
      match within with
      | Some loc when not (loc_within loc r.r_loc) -> s
      | _ -> SSet.add r.r_key s)
    SSet.empty b.b_refs

(* The identifiers free in the sub-expression at [loc]: used there,
   bound outside it (or not in the body at all) *)
let free_in b (loc : Location.t) =
  List.filter
    (fun o ->
      loc_within loc o.o_loc
      &&
      match SMap.find_opt o.o_un b.b_binders with
      | Some bl -> not (loc_within loc bl)
      | None -> true)
    b.b_idents

(* ----- the structure walk ----- *)

type fn = {
  f_key : string;  (* canonical normalized name *)
  f_unit : string;
  f_file : string;
  f_body : body;
  f_hot : bool;  (* binding carries [@@placer_lint.hot] *)
  f_numeric : bool;  (* binding carries [@@placer_lint.numeric] *)
}

type harvested = {
  h_uc : unit_ctx;
  h_unit : string;
  h_str : Typedtree.structure;
  h_types : (string list * Typedtree.type_declaration) list;
      (* every type declaration, with its module path inside the unit *)
  h_bindings : (Typedtree.value_binding * body) list;
      (* every module-level value binding, nested modules included *)
  h_fns : fn list;
  h_scripts : body list;
  h_defs : Typedtree.expression SMap.t;
      (* module-level non-function bindings, unique_name -> RHS; lets
         the numeric pass rank references to constants like
         [let eps = 1e-9]. *)
}

let rec peel_mod (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_constraint (me, _, _, _) -> peel_mod me
  | _ -> me

(* One walk over the unit's structure and the structures of its nested
   modules ([include]s and [module _ = struct ... end] too). Functor
   bodies are skipped: their bindings are per-application. Module
   aliases are recorded, not entered. Once the unit's name tables are
   complete, every binding and script gets its [body_facts]. *)
let harvest (u : unit_info) =
  let globals = ref SMap.empty in
  let fn_idents = ref SMap.empty in
  let aliases = ref SMap.empty in
  let types = ref [] in
  let defs = ref SMap.empty in
  (* (binding, function key, right-hand side) for every binding and
     [Tstr_eval] script, in structure order *)
  let items = ref [] in
  let unit_disp = normalize u.u_name in
  let rec str mods (s : Typedtree.structure) =
    List.iter (item mods) s.str_items
  and item mods (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_type (_, decls) ->
        List.iter (fun d -> types := (mods, d) :: !types) decls
    | Tstr_value (_, vbs) -> List.iter (vb mods) vbs
    | Tstr_eval (e, _) -> items := (None, None, e) :: !items
    | Tstr_module mb -> mb_h mods mb
    | Tstr_recmodule mbs -> List.iter (mb_h mods) mbs
    | Tstr_include incl -> mod_h mods (peel_mod incl.incl_mod)
    | _ -> ()
  and vb mods (v : Typedtree.value_binding) =
    let display id = String.concat "." ((unit_disp :: mods) @ [ Ident.name id ]) in
    let register id =
      globals := SMap.add (Ident.unique_name id) (display id) !globals
    in
    match v.vb_pat.pat_desc with
    | Typedtree.Tpat_var (id, _) -> (
        register id;
        match v.vb_expr.exp_desc with
        | Typedtree.Texp_function _ ->
            let key = display id in
            fn_idents := SMap.add (Ident.unique_name id) key !fn_idents;
            items := (Some v, Some key, v.vb_expr) :: !items
        | _ ->
            defs := SMap.add (Ident.unique_name id) v.vb_expr !defs;
            items := (Some v, None, v.vb_expr) :: !items)
    | _ ->
        List.iter register (Typedtree.pat_bound_idents v.vb_pat);
        items := (Some v, None, v.vb_expr) :: !items
  and mb_h mods (mb : Typedtree.module_binding) =
    let name = Option.value mb.mb_name.txt ~default:"_" in
    match (peel_mod mb.mb_expr).mod_desc with
    | Tmod_ident (p, _) ->
        aliases := SMap.add name (normalize (Path.name p)) !aliases
    | _ -> mod_h (mods @ [ name ]) (peel_mod mb.mb_expr)
  and mod_h mods (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> str mods s
    | _ -> ()
  in
  str [] u.u_str;
  let uc =
    {
      uc_file = u.u_file;
      uc_globals = !globals;
      uc_fn_idents = !fn_idents;
      uc_aliases = !aliases;
    }
  in
  let items =
    List.rev_map (fun (v, key, e) -> (v, key, body_facts uc e)) !items
  in
  let has_attr (v : Typedtree.value_binding) name =
    List.exists
      (fun (a : Parsetree.attribute) -> String.equal a.attr_name.txt name)
      v.vb_attributes
  in
  {
    h_uc = uc;
    h_unit = u.u_name;
    h_str = u.u_str;
    h_types = List.rev !types;
    h_bindings =
      List.filter_map (fun (v, _, b) -> Option.map (fun v -> (v, b)) v) items;
    h_fns =
      List.filter_map
        (function
          | Some v, Some key, b ->
              Some
                {
                  f_key = key;
                  f_unit = u.u_name;
                  f_file = u.u_file;
                  f_body = b;
                  f_hot = has_attr v "placer_lint.hot";
                  f_numeric = has_attr v "placer_lint.numeric";
                }
          | _ -> None)
        items;
    h_scripts =
      List.filter_map
        (fun (_, key, b) -> if Option.is_none key then Some b else None)
        items;
    h_defs = !defs;
  }
