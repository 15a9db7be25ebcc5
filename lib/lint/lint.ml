(* placer-lint: determinism and parallel-safety rules over .cmt files.

   The repo's headline reproducibility claims — parallel runs match
   serial runs bit for bit, the incremental SA engine matches the full
   recompute exactly — are one stray [Unix.gettimeofday], one
   [Stdlib.Random] draw, one hash-order [Hashtbl.fold] or one shared
   mutable global away from silently breaking. This pass loads the
   typed trees dune already produces (no ppx, no reparse) and checks
   the rules with real type information: F1 in particular fires on the
   *instantiated* type of a polymorphic comparison, which a textual
   grep cannot see.

   The driver loads and harvests every unit once ([Ir]), builds a
   table of every harvested type declaration (record/variant component
   types, plus a "has a mutable field" bit) so the rules can decide
   whether a named type contains floats or mutable state across
   compilation-unit boundaries without reconstructing typing
   environments, runs the four passes, then applies path policy and
   suppression comments once to all of their findings. *)

(* the rule and finding types, the loader and the harvest: Lint is the
   core plus the driver *)
include Ir

let to_string f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col (rule_name f.rule)
    f.message

(* ----- sanctioned locations -----

   The rules are repo policy, so the allowlist lives with them:
   telemetry owns the clock, Rng owns randomness, the pool owns its
   documented process-wide singletons. Everything else goes through a
   per-site suppression comment that must state a reason. *)

let allowed_by_path rule file =
  match rule with
  | D1 -> String.starts_with ~prefix:"lib/telemetry/" file
  | D2 -> String.equal file "lib/numerics/rng.ml"
  | D4 -> String.starts_with ~prefix:"lib/pool/" file
  | C1 | C2 ->
      (* tests exercise the cache machinery deliberately (hammers, LRU
         eviction probes); the lint fixtures must still fire *)
      String.starts_with ~prefix:"test/" file
      && not (String.starts_with ~prefix:"test/lint_fixtures/" file)
  | D3 | F1 | H1 | N1 | N2 | N3 | N4 | P1 | P2 | R1 | A1 | Bad_suppress ->
      false

(* The sanctioned channel for cross-domain effects: per-domain
   telemetry collectors and the pool's own internals. Their functions
   get assumed-pure effect summaries (see Effects), and their fan-out
   machinery is not re-checked against itself. *)
let sanctioned_unit file =
  String.starts_with ~prefix:"lib/telemetry/" file
  || String.starts_with ~prefix:"lib/pool/" file

(* ----- the type-declaration table ----- *)

type decl_entry = {
  d_unit : string;  (* compilation unit that declared it *)
  d_components : Types.type_expr list;
  d_mutable : bool;  (* record (possibly inline) with a mutable field *)
}

(* "Annealing__Island" and "Annealing.Island" both occur as path
   prefixes depending on whether a use goes through the dune wrapper
   alias, so every declaration is registered under both spellings. *)
let register_decl tbl ~unit_name (mods, (d : Typedtree.type_declaration)) =
  let labels_info labels =
    ( List.map (fun (l : Typedtree.label_declaration) -> l.ld_type.ctyp_type)
        labels,
      List.exists
        (fun (l : Typedtree.label_declaration) ->
          l.ld_mutable = Asttypes.Mutable)
        labels )
  in
  let components, is_mutable =
    match d.typ_kind with
    | Ttype_record labels -> labels_info labels
    | Ttype_variant constrs ->
        List.fold_left
          (fun (acc, m) (c : Typedtree.constructor_declaration) ->
            match c.cd_args with
            | Cstr_tuple ctys ->
                ( acc
                  @ List.map
                      (fun (ct : Typedtree.core_type) -> ct.ctyp_type)
                      ctys,
                  m )
            | Cstr_record labels ->
                let tys, lm = labels_info labels in
                (acc @ tys, m || lm))
          ([], false) constrs
    | Ttype_abstract | Ttype_open -> (
        ( (match d.typ_manifest with
          | Some ct -> [ ct.ctyp_type ]
          | None -> []),
          false ))
  in
  let entry = { d_unit = unit_name; d_components = components; d_mutable = is_mutable } in
  let local = String.concat "." (mods @ [ d.typ_name.txt ]) in
  let qualified = unit_name ^ "." ^ local in
  tbl := SMap.add qualified entry !tbl;
  tbl := SMap.add (normalize qualified) entry !tbl

(* ----- type predicates ----- *)

let lookup_decl tbl ~unit_name name =
  match SMap.find_opt (unit_name ^ "." ^ name) tbl with
  | Some _ as r -> r
  | None -> (
      match SMap.find_opt name tbl with
      | Some _ as r -> r
      | None -> SMap.find_opt (normalize name) tbl)

let name_matches name candidates =
  List.exists
    (fun c -> String.equal name c || String.ends_with ~suffix:("." ^ c) name)
    candidates

(* Walk a type expression, resolving named constructors through the
   declaration table; [stop] cuts recursion at types whose contents are
   sanctioned (mutexes, DLS keys), [base] is the hit predicate, and
   [use_decl_mut] additionally counts records with mutable fields. *)
let type_has tbl ~unit_name ~base ~stop ~use_decl_mut ty0 =
  let rec go ~unit_name visited ty =
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
        let n = Path.name p in
        if stop n then false
        else if base n then true
        else
          let via_decl =
            match lookup_decl tbl ~unit_name n with
            | Some e when not (SSet.mem n visited) ->
                let visited = SSet.add n visited in
                (use_decl_mut && e.d_mutable)
                || List.exists
                     (go ~unit_name:e.d_unit visited)
                     e.d_components
            | _ -> false
          in
          via_decl || List.exists (go ~unit_name visited) args
    | Types.Ttuple ts -> List.exists (go ~unit_name visited) ts
    | Types.Tpoly (t, _) -> go ~unit_name visited t
    | _ -> false
  in
  go ~unit_name SSet.empty ty0

let float_base n =
  String.equal n "float" || String.equal n "floatarray"
  || name_matches n [ "Float.t" ]

let contains_float tbl ~unit_name ty =
  type_has tbl ~unit_name ~base:float_base
    ~stop:(fun _ -> false)
    ~use_decl_mut:false ty

let mutable_base n =
  String.equal n "array" || String.equal n "bytes"
  || String.equal n "floatarray" || String.equal n "ref"
  || name_matches n
       [
         "ref"; "Hashtbl.t"; "Buffer.t"; "Bytes.t"; "Atomic.t"; "Queue.t";
         "Stack.t"; "Weak.t";
       ]

let mutable_stop n =
  name_matches n
    [
      "Mutex.t"; "Condition.t"; "Semaphore.Counting.t"; "Semaphore.Binary.t";
      "Domain.DLS.key";
    ]

let contains_mutable tbl ~unit_name ty =
  type_has tbl ~unit_name ~base:mutable_base ~stop:mutable_stop
    ~use_decl_mut:true ty

(* ----- suppression comments -----

   "placer-lint: allow <rule> <reason>" in a comment on the offending
   line or the line directly above it. The reason is mandatory: a
   suppression is a written-down design decision, not an off switch. *)

type supp = { s_line : int; s_rule : string; s_reason : string }

let find_sub_from line sub start =
  let n = String.length line and m = String.length sub in
  let rec at i =
    if i + m > n then None
    else if String.sub line i m = sub then Some i
    else at (i + 1)
  in
  at start

let find_sub line sub = find_sub_from line sub 0

(* A rule id is uppercase alphanumeric starting with a letter. Prose
   that merely mentions the tool name, or the tag inside a string
   literal, never has "allow" + a rule-shaped token after it, so it is
   ignored rather than reported. *)
let rule_shaped s =
  String.length s > 0
  && (match s.[0] with 'A' .. 'Z' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
       s

(* Several tags may share one line (two comments, each naming its own
   rule and reason, side by side): scan every occurrence of the marker,
   not just the first. A reason runs to the next "*)" or the next
   marker, whichever comes first. *)
let parse_suppressions text =
  let supps = ref [] in
  let lineno = ref 0 in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         incr lineno;
         let rec scan start =
           match find_sub_from line "placer-lint:" start with
           | None -> ()
           | Some i ->
               let after = i + String.length "placer-lint:" in
               let stop =
                 Option.value ~default:(String.length line)
                   (find_sub_from line "placer-lint:" after)
               in
               let rest =
                 String.trim (String.sub line after (stop - after))
               in
               (if String.starts_with ~prefix:"allow " rest then
                  let rest =
                    String.trim (String.sub rest 6 (String.length rest - 6))
                  in
                  let rule_txt, tail =
                    match String.index_opt rest ' ' with
                    | Some j ->
                        ( String.sub rest 0 j,
                          String.sub rest (j + 1)
                            (String.length rest - j - 1) )
                    | None -> (rest, "")
                  in
                  let rule_txt =
                    match find_sub rule_txt "*)" with
                    | Some j -> String.trim (String.sub rule_txt 0 j)
                    | None -> rule_txt
                  in
                  let reason =
                    match find_sub tail "*)" with
                    | Some j -> String.trim (String.sub tail 0 j)
                    | None -> String.trim tail
                  in
                  if rule_shaped rule_txt then
                    supps :=
                      {
                        s_line = !lineno;
                        s_rule = rule_txt;
                        s_reason = reason;
                      }
                      :: !supps);
               scan after
         in
         scan 0);
  List.rev !supps

(* ----- D1-D4, F1, H1 ----- *)

let f1_names = [ "Stdlib.="; "Stdlib.<>"; "Stdlib.compare" ]

let h1_names = [ "Obj.magic"; "Stdlib.Obj.magic" ]

let printed_type ty =
  match Format.asprintf "%a" Printtyp.type_expr ty with
  | s -> s
  (* placer-lint: allow H1 Printtyp is diagnostic-only; any printer failure must degrade to a placeholder *)
  | exception _ -> "<type>"

(* A handler that binds a name ([with e -> ... raise e]) is a
   deliberate decision and stays legal; only the anonymous swallow-all
   [with _ ->] (and its [match ... with exception _] spelling) fires. *)
let catch_all_pattern (p : Typedtree.pattern) =
  match p.pat_desc with Tpat_any -> true | _ -> false

let rec exn_catch_all_loc
    (p : Typedtree.computation Typedtree.general_pattern) =
  match p.pat_desc with
  | Typedtree.Tpat_exception v -> (
      match v.pat_desc with
      | Typedtree.Tpat_any -> Some v.pat_loc
      | _ -> None)
  | Typedtree.Tpat_or (a, b, _) -> (
      match exn_catch_all_loc a with
      | Some _ as r -> r
      | None -> exn_catch_all_loc b)
  | _ -> None

let catch_all_message =
  "catch-all exception handler; match the exceptions you mean (a swallowed \
   Out_of_memory or Stack_overflow hides real failures)"

let check_expressions ~tbl ~unit_name emit (str : Typedtree.structure) =
  let check_ident (e : Typedtree.expression) n =
    let loc = e.exp_loc in
    let sn = strip_stdlib n in
    if List.mem sn clock_names then
      emit loc D1
        (Printf.sprintf
           "wall-clock read %s outside lib/telemetry; route timing through \
            Telemetry spans"
           n)
    else if
      (* unlike the summaries' rng flag, D2 also fires on a use of the
         bare [Random] module path *)
      is_global_rng n || String.equal sn "Random"
    then
      emit loc D2
        (Printf.sprintf
           "%s is process-global; draw from an explicit Numerics.Rng stream"
           n)
    else if List.mem sn hash_order_names then
      emit loc D3
        (Printf.sprintf
           "%s visits entries in hash order; harvest the keys, sort, then \
            iterate"
           n)
    else if List.mem n h1_names then
      emit loc H1 "Obj.magic defeats the type system"
    else if List.mem n f1_names then
      match Types.get_desc e.exp_type with
      | Types.Tarrow (_, t1, _, _) when contains_float tbl ~unit_name t1 ->
          emit loc F1
            (Printf.sprintf
               "polymorphic %s instantiated at %s (contains float); use \
                Float.equal / Float.compare or a typed comparator"
               (match String.rindex_opt n '.' with
               | Some i -> String.sub n (i + 1) (String.length n - i - 1)
               | None -> n)
               (printed_type t1))
      | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.exp_desc with
          | Texp_ident (p, _, _) -> check_ident e (Path.name p)
          | Texp_try (_, cases) ->
              List.iter
                (fun (c : Typedtree.value Typedtree.case) ->
                  if catch_all_pattern c.c_lhs && Option.is_none c.c_guard
                  then emit c.c_lhs.pat_loc H1 catch_all_message)
                cases
          | Texp_match (_, cases, _) ->
              List.iter
                (fun (c : Typedtree.computation Typedtree.case) ->
                  match exn_catch_all_loc c.c_lhs with
                  | Some loc when Option.is_none c.c_guard ->
                      emit loc H1 catch_all_message
                  | _ -> ())
                cases
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str

(* D4: mutable state bound at module level, over every binding the
   harvest collected (nested modules included — those are just as
   global; functor bodies are skipped: their bindings are
   per-application). *)
let check_d4 ~tbl ~unit_name emit ((vb : Typedtree.value_binding), b) =
  let name =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) -> Some (Ident.name id)
    | Tpat_alias (_, id, _) -> Some (Ident.name id)
    | _ -> None
  in
  (* the creators: mutable allocations evaluated with the binding, not
     per call under a lambda (so a closure capturing a fresh ref
     counts). Only named bindings are checked for them: a [let () =
     ...] entry point allocates plenty of local state that never
     outlives it, and anything it does persist is caught at the
     binding that stores it *)
  let creates_mutable =
    List.exists (fun a -> a.a_mutable && not a.a_under_fn) b.b_allocs
  in
  if
    contains_mutable tbl ~unit_name vb.vb_expr.exp_type
    || (Option.is_some name && creates_mutable)
  then
    let name = Option.value name ~default:"_" in
    emit vb.vb_pat.pat_loc D4
      (Printf.sprintf
         "module-level mutable binding '%s' is shared by every pool \
          domain; make it function-local, domain-local (Domain.DLS), or \
          guard it with a documented mutex and suppress with the reason"
         name)

(* ----- driver ----- *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* A validated suppression, kept for the --list-allows audit: every
   reasoned exception to the rules is enumerable in one pass. *)
type allow = {
  al_file : string;
  al_line : int;
  al_rule : string;
  al_reason : string;
}

(* Apply the unit's suppression comments to its findings [raw] (every
   pass's, path policy already applied): drop the ones a reasoned allow
   covers, and report malformed allows and stale ones — a reasoned
   allow that covers no finding. *)
let suppress ~root ~file raw =
  let supps =
    match read_file (Filename.concat root file) with
    | Some text -> parse_suppressions text
    | None -> []
  in
  let valid, bad =
    List.partition
      (fun s -> rule_of_string s.s_rule <> None && s.s_reason <> "")
      supps
  in
  let covers s f =
    String.equal s.s_rule (rule_name f.rule)
    && (s.s_line = f.line || s.s_line = f.line - 1)
  in
  let kept = List.filter (fun f -> not (List.exists (fun s -> covers s f) valid)) raw in
  let bad_finding s message =
    { file; line = s.s_line; col = 1; rule = Bad_suppress; trace = []; message }
  in
  let bad_findings =
    List.map
      (fun s ->
        bad_finding s
          (if rule_of_string s.s_rule = None then
             Printf.sprintf
               "suppression names unknown rule '%s' (expected D1-D4, F1, H1, \
                N1-N4, P1, P2, R1, C1, C2 or A1)"
               s.s_rule
           else
             Printf.sprintf
               "suppression for %s is missing its reason; write why the rule \
                does not apply here"
               s.s_rule))
      bad
  in
  let stale_findings =
    List.filter_map
      (fun s ->
        if List.exists (covers s) raw then None
        else
          Some
            (bad_finding s
               (Printf.sprintf
                  "stale suppression: no %s finding on this line or the \
                   next; delete the allow"
                  s.s_rule)))
      valid
  in
  let allows =
    List.map
      (fun s ->
        {
          al_file = file;
          al_line = s.s_line;
          al_rule = s.s_rule;
          al_reason = s.s_reason;
        })
      valid
  in
  (kept @ bad_findings @ stale_findings, allows)

module Summaries = Effects.Summaries

type report = {
  r_findings : finding list;
  r_units : int;
  r_summaries : Summaries.t;
  r_allows : allow list;
}

let analyze ?(excludes = []) ~root paths =
  let skip s =
    List.exists
      (fun pat -> match find_sub s pat with Some _ -> true | None -> false)
      excludes
  in
  let harvested = List.map harvest (load ~skip paths) in
  let tbl = ref SMap.empty in
  List.iter
    (fun h -> List.iter (register_decl tbl ~unit_name:h.h_unit) h.h_types)
    harvested;
  let own =
    List.concat_map
      (fun h ->
        let file = h.h_uc.uc_file and unit_name = h.h_unit in
        let out = ref [] in
        let emit loc rule message =
          out := finding ~file loc rule message :: !out
        in
        check_expressions ~tbl:!tbl ~unit_name emit h.h_str;
        List.iter (check_d4 ~tbl:!tbl ~unit_name emit) h.h_bindings;
        List.rev !out)
      harvested
  in
  let eff_findings, program =
    Effects.analyze ~sanctioned:sanctioned_unit harvested
  in
  let dep_findings = Deps.check program in
  (* the numeric pass also patches nonzero-args preconditions into the
     effect summaries, so the summary snapshot is taken after it *)
  let num_findings = Numeric.check program in
  let by_file =
    List.fold_left
      (fun m f ->
        if allowed_by_path f.rule f.file then m
        else
          SMap.update f.file
            (fun prev -> Some (f :: Option.value ~default:[] prev))
            m)
      SMap.empty
      (own @ eff_findings @ dep_findings @ num_findings)
  in
  let per_unit =
    List.map
      (fun h ->
        let file = h.h_uc.uc_file in
        suppress ~root ~file
          (List.rev (Option.value ~default:[] (SMap.find_opt file by_file))))
      harvested
  in
  let allows =
    List.concat_map snd per_unit
    |> List.sort (fun a b ->
           match String.compare a.al_file b.al_file with
           | 0 -> Int.compare a.al_line b.al_line
           | c -> c)
  in
  {
    r_findings = sort_findings (List.concat_map fst per_unit);
    r_units = List.length harvested;
    r_summaries = !(program.Effects.pr_eng.Effects.eg_sums);
    r_allows = allows;
  }

(* ----- machine-readable emitters ----- *)

let counts_of findings =
  List.map
    (fun r ->
      (rule_name r, List.length (List.filter (fun f -> f.rule = r) findings)))
    all_rules

let num n = Jsonio.Num (float_of_int n)

let finding_json f =
  let open Jsonio in
  Obj
    ([
       ("file", Str f.file);
       ("line", num f.line);
       ("col", num f.col);
       ("rule", Str (rule_name f.rule));
       ("message", Str f.message);
     ]
    @
    match f.trace with
    | [] -> []
    | t -> [ ("trace", Arr (List.map (fun s -> Str s) t)) ])

(* The shape documented in README and pinned by test_lint:
   {"tool":"placer-lint","units":N,
    "counts":{"D1":n,...},"findings":[{file,line,col,rule,message}...]} *)
let to_json r =
  let open Jsonio in
  to_string
    (Obj
       [
         ("tool", Str "placer-lint");
         ("units", num r.r_units);
         ( "counts",
           Obj (List.map (fun (n, c) -> (n, num c)) (counts_of r.r_findings)) );
         ("findings", Arr (List.map finding_json r.r_findings));
       ])

let to_sarif r =
  let open Jsonio in
  let rule_json ru =
    Obj
      [
        ("id", Str (rule_name ru));
        ("shortDescription", Obj [ ("text", Str (rule_doc ru)) ]);
      ]
  in
  let result f =
    let region = [ ("startLine", num f.line); ("startColumn", num f.col) ] in
    let location =
      [ ("artifactLocation", Obj [ ("uri", Str f.file) ]); ("region", Obj region) ]
    in
    Obj
      [
        ("ruleId", Str (rule_name f.rule));
        ("level", Str "error");
        ("message", Obj [ ("text", Str f.message) ]);
        ("locations", Arr [ Obj [ ("physicalLocation", Obj location) ] ]);
      ]
  in
  let driver =
    [
      ("name", Str "placer-lint");
      ("rules", Arr (List.map rule_json all_rules));
    ]
  in
  to_string
    (Obj
       [
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Str "2.1.0");
         ( "runs",
           Arr
             [
               Obj
                 [
                   ("tool", Obj [ ("driver", Obj driver) ]);
                   ("results", Arr (List.map result r.r_findings));
                 ];
             ] );
       ])
