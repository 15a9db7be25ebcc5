(* The lint core: the one form every placer-lint pass reads.

   [Lint] loads each compilation unit once ([load]), walks its
   structure once ([harvest]) and hands the harvested units to the
   passes: its own per-expression rules (D1-D4, F1, H1), [Effects]
   (P1/P2/R1 and the effect summaries), [Deps] (C1/C2/A1) and
   [Numeric] (N1-N4). This module owns what they share: the rule and
   finding types every pass emits, unit loading, the structure walk,
   name normalisation and call-key resolution, the Typedtree helpers
   (parameter peeling, argument matching, [pos_of]) and the stdlib
   name tables. *)

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

let is_alloc n = List.mem_assoc n allocs
let is_mutable_alloc n = List.assoc_opt n allocs = Some true

(* The repo's own fan-out entry points: [Some "Pool.map"] when the
   normalized callee name is one. *)
let fanout_of n =
  List.find_opt
    (fun t -> String.equal n t || String.ends_with ~suffix:("." ^ t) n)
    [ "Pool.map"; "Pool.map_list"; "Pool.run_all" ]

(* ----- Typedtree helpers ----- *)

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

(* Walk the curried [fun p1 -> fun p2 -> ...] spine: per-level labels,
   every bound ident with its 0-based level, and the innermost body.
   Stops at a multi-case or guarded level ([function ...]); walkers
   treat the remaining node as a nested lambda. *)
let peel_params e0 =
  let rec go labels params idx (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_function { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ }
      ->
        let here =
          List.map (fun id -> (id, idx)) (Typedtree.pat_bound_idents c_lhs)
        in
        go (arg_label :: labels) (here @ params) (idx + 1) c_rhs
    | _ -> (List.rev labels, List.rev params, e)
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

(* ----- the structure walk ----- *)

type fn = {
  f_key : string;  (* canonical normalized name *)
  f_unit : string;
  f_file : string;
  f_expr : Typedtree.expression;
  f_hot : bool;  (* binding carries [@@placer_lint.hot] *)
  f_numeric : bool;  (* binding carries [@@placer_lint.numeric] *)
}

type unit_ctx = {
  uc_file : string;
  uc_globals : string SMap.t;  (* unique_name -> display name *)
  uc_fn_idents : string SMap.t;  (* unique_name -> canonical fn key *)
  uc_aliases : string SMap.t;  (* local module alias -> normalized target *)
}

type harvested = {
  h_uc : unit_ctx;
  h_unit : string;
  h_str : Typedtree.structure;
  h_types : (string list * Typedtree.type_declaration) list;
      (* every type declaration, with its module path inside the unit *)
  h_bindings : Typedtree.value_binding list;
      (* every module-level value binding, nested modules included *)
  h_fns : fn list;
  h_scripts : Typedtree.expression list;
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
   aliases are recorded, not entered. *)
let harvest (u : unit_info) =
  let globals = ref SMap.empty in
  let fn_idents = ref SMap.empty in
  let aliases = ref SMap.empty in
  let types = ref [] in
  let bindings = ref [] in
  let fns = ref [] in
  let scripts = ref [] in
  let defs = ref SMap.empty in
  let unit_disp = normalize u.u_name in
  let rec str mods (s : Typedtree.structure) =
    List.iter (item mods) s.str_items
  and item mods (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_type (_, decls) ->
        List.iter (fun d -> types := (mods, d) :: !types) decls
    | Tstr_value (_, vbs) -> List.iter (vb mods) vbs
    | Tstr_eval (e, _) -> scripts := e :: !scripts
    | Tstr_module mb -> mb_h mods mb
    | Tstr_recmodule mbs -> List.iter (mb_h mods) mbs
    | Tstr_include incl -> mod_h mods (peel_mod incl.incl_mod)
    | _ -> ()
  and vb mods (v : Typedtree.value_binding) =
    bindings := v :: !bindings;
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
            let has_attr name =
              List.exists
                (fun (a : Parsetree.attribute) ->
                  String.equal a.attr_name.txt name)
                v.vb_attributes
            in
            fn_idents := SMap.add (Ident.unique_name id) key !fn_idents;
            fns :=
              {
                f_key = key;
                f_unit = u.u_name;
                f_file = u.u_file;
                f_expr = v.vb_expr;
                f_hot = has_attr "placer_lint.hot";
                f_numeric = has_attr "placer_lint.numeric";
              }
              :: !fns
        | _ ->
            defs := SMap.add (Ident.unique_name id) v.vb_expr !defs;
            scripts := v.vb_expr :: !scripts)
    | _ ->
        List.iter register (Typedtree.pat_bound_idents v.vb_pat);
        scripts := v.vb_expr :: !scripts
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
  {
    h_uc =
      {
        uc_file = u.u_file;
        uc_globals = !globals;
        uc_fn_idents = !fn_idents;
        uc_aliases = !aliases;
      };
    h_unit = u.u_name;
    h_str = u.u_str;
    h_types = List.rev !types;
    h_bindings = List.rev !bindings;
    h_fns = List.rev !fns;
    h_scripts = List.rev !scripts;
    h_defs = !defs;
  }

(* ----- call-key resolution ----- *)

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
