(* Cache-key soundness and hot-path allocation analysis over the
   phase-1 effect summaries ([Effects.program]).

   The repo's three content-addressed cache tiers — the daemon result
   cache in [bin/placed], the motif-keyed [Template_store] tier and
   the [Gnn_setup] training cache — all rest on the same assumption:
   a cached computation is a pure function of its key. This pass
   proves it (or reports where it fails) instead of hoping:

   - C1: every [Cache.get_or_compute] call is a cache entry point.
     The thunk is closed over the reference call graph (the same
     over-approximate edges as the SCC fixpoint: any referenced
     summarized function is a potential callee), and every *ambient
     input* observable from it — env vars, the wall clock, filesystem
     reads, hash-order iteration, domain-local storage, derefs of
     module-level mutable state — is a finding, because the key
     cannot have captured it. The BFS parent chain becomes the
     [--explain C1] flow trace from the entry point to the read.

   - C2: the thunk's free variables are the inputs the cached value
     can depend on. Each is expanded through the enclosing function's
     let-bindings to its *root* identifiers (parameters of the
     enclosing function); a root that is not reachable from the
     [~key] expression's own roots means two calls differing only in
     that input collide on one cache entry.

   - A1: inside a function marked [[@@placer_lint.hot]] (the [Eval]
     propose/commit path, the matheuristic window re-pricing), every
     heap allocation is a finding: arrays, records, non-constant
     constructors, tuples, closures, and calls to known allocating
     stdlib entry points. [ref] cells are deliberately excluded — a
     minor-heap scalar accumulator is the idiom, not a regression;
     A1 pins the PR 3 allocation win against *structural* churn.

   Like the rest of placer-lint the pass is precision-biased: an
   unresolvable thunk or a missing [~key] argument stays quiet, and
   sanctioned units (telemetry, pool) are never reported through. *)

open Ir

let cache_entry_tails = [ "Cache.get_or_compute" ]

let is_cache_entry key =
  List.exists
    (fun t -> String.equal key t || String.ends_with ~suffix:("." ^ t) key)
    cache_entry_tails

(* ----- free identifiers of an expression -----

   Occurrence counts per unique name, split into reads and bare
   write-targets ([x := e], [incr x], [decr x] where the target is the
   identifier itself): a captured ref the thunk only ever writes is
   not an input to the cached value. *)

type occ = {
  o_name : string;  (* display name *)
  mutable o_reads : int;
  mutable o_writes : int;
}

let write_target_names = [ ":="; "incr"; "decr" ]

let free_idents (e0 : Typedtree.expression) =
  let bound : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let occs : (string, occ) Hashtbl.t = Hashtbl.create 16 in
  let skip : Typedtree.expression list ref = ref [] in
  let bind_ids ids =
    List.iter (fun id -> Hashtbl.replace bound (Ident.unique_name id) ()) ids
  in
  let note un name ~write =
    let o =
      match Hashtbl.find_opt occs un with
      | Some o -> o
      | None ->
          let o = { o_name = name; o_reads = 0; o_writes = 0 } in
          Hashtbl.replace occs un o;
          o
    in
    if write then o.o_writes <- o.o_writes + 1
    else o.o_reads <- o.o_reads + 1
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  bind_ids (Typedtree.pat_bound_idents vb.vb_pat))
                vbs
          | Texp_function { cases; _ } ->
              List.iter
                (fun (c : Typedtree.value Typedtree.case) ->
                  bind_ids (Typedtree.pat_bound_idents c.c_lhs))
                cases
          | Texp_match (_, cases, _) ->
              List.iter
                (fun (c : Typedtree.computation Typedtree.case) ->
                  bind_ids (Typedtree.pat_bound_idents c.c_lhs))
                cases
          | Texp_try (_, cases) ->
              List.iter
                (fun (c : Typedtree.value Typedtree.case) ->
                  bind_ids (Typedtree.pat_bound_idents c.c_lhs))
                cases
          | Texp_for (id, _, _, _, _, _) -> bind_ids [ id ]
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
            when List.mem
                   (strip_stdlib (Path.name p))
                   write_target_names -> (
              match nolabel_args args with
              | ({ Typedtree.exp_desc = Texp_ident (Path.Pident id, _, _); _ }
                 as tgt)
                :: _ ->
                  if not (Hashtbl.mem bound (Ident.unique_name id)) then
                    note (Ident.unique_name id) (Ident.name id) ~write:true;
                  skip := tgt :: !skip
              | _ -> ())
          | Texp_ident (Path.Pident id, _, _) ->
              if
                (not (Hashtbl.mem bound (Ident.unique_name id)))
                && not (List.memq e !skip)
              then note (Ident.unique_name id) (Ident.name id) ~write:false
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e0;
  occs

let read_idents e =
  (* placer-lint: allow D3 bindings are List.sort-ed immediately; fold order cannot leak *)
  Hashtbl.fold
    (fun un o acc -> if o.o_reads > 0 then (un, o.o_name) :: acc else acc)
    (free_idents e) []
  |> List.sort compare

let all_idents e =
  (* placer-lint: allow D3 bindings are List.sort-ed immediately; fold order cannot leak *)
  Hashtbl.fold (fun un o acc -> (un, o.o_name) :: acc) (free_idents e) []
  |> List.sort compare

(* ----- let-binding environment of an enclosing function -----

   unique name -> defining expression, for every let anywhere in the
   function body (tuple/record patterns map each bound name to the
   whole right-hand side — conservative, roots only grow). *)

let collect_defs (e0 : Typedtree.expression) =
  let defs : (string, Typedtree.expression) Hashtbl.t = Hashtbl.create 32 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Texp_let (_, vbs, _) ->
              List.iter
                (fun (vb : Typedtree.value_binding) ->
                  List.iter
                    (fun id ->
                      Hashtbl.replace defs (Ident.unique_name id) vb.vb_expr)
                    (Typedtree.pat_bound_idents vb.vb_pat))
                vbs
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e0;
  defs

(* Expand an identifier through the let-environment to its root set:
   parameters of the enclosing function (no definition in [defs]).
   Top-level functions and module-level globals are dropped — calls
   are inputs only through their arguments (already walked), and
   module-level *mutable* reads are C1's domain, not C2's. *)
let roots_of prog_uc defs names un0 =
  let memo : (string, SSet.t) Hashtbl.t = Hashtbl.create 16 in
  let rec go visiting un =
    if SSet.mem un visiting then SSet.empty
    else
      match Hashtbl.find_opt memo un with
      | Some r -> r
      | None ->
          let r =
            if
              SMap.mem un prog_uc.uc_fn_idents
              || SMap.mem un prog_uc.uc_globals
            then SSet.empty
            else
              match Hashtbl.find_opt defs un with
              | None -> SSet.singleton un
              | Some e ->
                  List.fold_left
                    (fun acc (u, nm) ->
                      Hashtbl.replace names u nm;
                      SSet.union acc (go (SSet.add un visiting) u))
                    SSet.empty (read_idents e)
          in
          Hashtbl.replace memo un r;
          r
  in
  go SSet.empty un0

let roots_of_expr prog_uc defs names e =
  List.fold_left
    (fun acc (un, nm) ->
      Hashtbl.replace names un nm;
      SSet.union acc (roots_of prog_uc defs names un))
    SSet.empty (read_idents e)

(* ----- the thunk's ambient closure (C1) ----- *)

(* Re-walk a lambda with the effects machinery (no task context) to
   collect its *direct* ambient reads and its referenced summarized
   functions; local helper lambdas it references are walked too. *)
let thunk_closure prog h defs lam =
  let ambs = ref [] in
  let seeds = ref SSet.empty in
  let seen_lams : Typedtree.expression list ref = ref [] in
  let rec do_lam (l : Typedtree.expression) =
    if not (List.memq l !seen_lams) then begin
      seen_lams := l :: !seen_lams;
      let _, env, body = Effects.param_env l in
      let ctx = Effects.new_ctx prog.Effects.pr_eng h.h_uc env in
      Effects.walk ctx body;
      ambs := ctx.Effects.cx_acc.Effects.c_ambient @ !ambs;
      List.iter
        (fun k -> seeds := SSet.add k !seeds)
        (Effects.callee_keys h.h_uc prog.Effects.pr_known l);
      List.iter
        (fun (un, _) ->
          match Hashtbl.find_opt defs un with
          | Some ({ Typedtree.exp_desc = Texp_function _; _ } as le) ->
              do_lam le
          | _ -> ())
        (all_idents l)
    end
  in
  do_lam lam;
  (List.sort_uniq Effects.Summaries.ambient_compare !ambs,
   SSet.elements !seeds)

(* BFS over the reference call graph, keeping parent pointers so each
   reached function has a shortest call path back to a thunk seed. *)
let bfs_reachable prog seeds =
  let parents : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let q = Queue.create () in
  List.iter
    (fun k ->
      if not (Hashtbl.mem parents k) then begin
        Hashtbl.replace parents k None;
        Queue.add k q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let k = Queue.pop q in
    order := k :: !order;
    List.iter
      (fun k' ->
        if not (Hashtbl.mem parents k') then begin
          Hashtbl.replace parents k' (Some k);
          Queue.add k' q
        end)
      (Option.value ~default:[]
         (Hashtbl.find_opt prog.Effects.pr_edges k))
  done;
  (parents, List.rev !order)

let call_path parents key =
  let rec up acc k =
    match Hashtbl.find_opt parents k with
    | Some (Some p) -> up (k :: acc) p
    | Some None | None -> k :: acc
  in
  up [] key

(* ----- per-site checks ----- *)

let rec resolve_thunk defs (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function _ -> Some e
  | Texp_ident (Path.Pident id, _, _) -> (
      match Hashtbl.find_opt defs (Ident.unique_name id) with
      | Some d when d != e -> resolve_thunk defs d
      | _ -> None)
  | _ -> None

let check_site prog h defs emit ~loc args =
  let site_file = h.h_uc.uc_file in
  let site_line, _ = pos_of loc in
  let nolabels = nolabel_args args in
  let handle_expr = List.nth_opt nolabels 0 in
  let thunk_expr = List.nth_opt nolabels 1 in
  let key_expr = labelled_arg args "key" in
  match (thunk_expr, Option.bind thunk_expr (resolve_thunk defs)) with
  | None, _ | _, None -> ()  (* partial application / opaque thunk *)
  | Some _, Some lam ->
      let sums = !(prog.Effects.pr_eng.Effects.eg_sums) in
      (* C1: ambient closure *)
      let direct_ambs, seeds = thunk_closure prog h defs lam in
      let parents, order = bfs_reachable prog seeds in
      let site_tag =
        Printf.sprintf "Cache.get_or_compute site at %s:%d" site_file
          site_line
      in
      let candidates = ref SMap.empty in
      let add token trace amb =
        if not (SMap.mem token !candidates) then
          candidates := SMap.add token (trace, amb) !candidates
      in
      List.iter
        (fun (amb : Effects.Summaries.ambient) ->
          add amb.am_token
            [
              site_tag;
              Printf.sprintf "thunk reads '%s' at %s:%d" amb.am_token
                amb.am_file amb.am_line;
            ]
            amb)
        direct_ambs;
      List.iter
        (fun key ->
          match SMap.find_opt key sums with
          | Some (s : Effects.Summaries.summary) when not s.s_assumed ->
              List.iter
                (fun (amb : Effects.Summaries.ambient) ->
                  let path = call_path parents key in
                  add amb.am_token
                    (site_tag
                     :: List.map (fun k -> "calls " ^ k) path
                    @ [
                        Printf.sprintf "%s reads '%s' at %s:%d" key
                          amb.am_token amb.am_file amb.am_line;
                      ])
                    amb)
                s.s_ambient
          | _ -> ())
        order;
      SMap.iter
        (fun token (trace, (amb : Effects.Summaries.ambient)) ->
          emit
            {
              file = site_file;
              line = site_line;
              col = 1;
              rule = C1;
              message =
                Printf.sprintf
                  "cached computation reads ambient input '%s' (%s:%d) \
                   that its key cannot capture; a hit can return a value \
                   computed under different ambient state — fold it into \
                   the key, drop the read, or allow with the reason \
                   (--explain C1 prints the call path)"
                  token amb.am_file amb.am_line;
              trace;
            })
        !candidates;
      (* C2: thunk roots vs key roots *)
      (match key_expr with
      | None -> ()
      | Some ke ->
          let names : (string, string) Hashtbl.t = Hashtbl.create 16 in
          let uc = h.h_uc in
          let key_roots = roots_of_expr uc defs names ke in
          let handle_roots =
            match handle_expr with
            | Some he -> roots_of_expr uc defs names he
            | None -> SSet.empty
          in
          let thunk_reads =
            (* reads of the resolved lambda, plus of the local helper
               lambdas it calls (their captures are inputs too) *)
            let acc = ref SSet.empty in
            let seen = ref [] in
            let rec grow (l : Typedtree.expression) =
              if not (List.memq l !seen) then begin
                seen := l :: !seen;
                List.iter
                  (fun (un, nm) ->
                    Hashtbl.replace names un nm;
                    acc := SSet.add un !acc;
                    match Hashtbl.find_opt defs un with
                    | Some
                        ({ Typedtree.exp_desc = Texp_function _; _ } as le)
                      ->
                        grow le
                    | _ -> ())
                  (read_idents l)
              end
            in
            grow lam;
            !acc
          in
          let thunk_roots =
            SSet.fold
              (fun un acc -> SSet.union acc (roots_of uc defs names un))
              thunk_reads SSet.empty
          in
          let missing =
            SSet.diff thunk_roots (SSet.union key_roots handle_roots)
          in
          SSet.iter
            (fun un ->
              let name =
                Option.value ~default:un (Hashtbl.find_opt names un)
              in
              emit
                {
                  file = site_file;
                  line = site_line;
                  col = 1;
                  rule = C2;
                  message =
                    Printf.sprintf
                      "thunk input '%s' influences the cached value but \
                       is not part of the key; two calls differing only \
                       in '%s' collide on one cache entry — fold it into \
                       the key or allow with the reason"
                      name name;
                  trace =
                    [
                      site_tag;
                      Printf.sprintf
                        "thunk captures '%s'; key reaches only {%s}" name
                        (String.concat ", "
                           (List.sort_uniq String.compare
                              (List.map
                                 (fun u ->
                                   Option.value ~default:u
                                     (Hashtbl.find_opt names u))
                                 (SSet.elements key_roots))));
                    ];
                })
            missing)

(* ----- site discovery ----- *)

let find_sites prog h emit (e0 : Typedtree.expression) =
  let defs = collect_defs e0 in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
              match resolve_call_key h.h_uc p with
              | Some key when is_cache_entry key ->
                  check_site prog h defs emit ~loc:e.exp_loc args
              | _ -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it e0

(* ----- A1: allocation inside [@@placer_lint.hot] functions ----- *)

(* [ref] cells are exempt (see the header comment) *)
let a1_alloc_name n = is_alloc n && not (String.equal n "ref")

let check_hot_fn emit f =
  let flag ~loc desc =
    emit
      (finding ~file:f.f_file loc A1
         (Printf.sprintf
            "heap allocation (%s) inside hot function %s \
             ([@@placer_lint.hot]); the per-move path must stay \
             allocation-free — hoist the storage into the engine state \
             or allow with the reason"
            desc f.f_key))
  in
  let rec deep (e : Typedtree.expression) =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun sub e ->
            (match e.Typedtree.exp_desc with
            | Texp_array (_ :: _) -> flag ~loc:e.exp_loc "array literal"
            | Texp_record _ -> flag ~loc:e.exp_loc "record"
            | Texp_tuple _ -> flag ~loc:e.exp_loc "tuple"
            | Texp_construct (_, cd, _ :: _) ->
                flag ~loc:e.exp_loc ("constructor " ^ cd.cstr_name)
            | Texp_function _ -> flag ~loc:e.exp_loc "closure"
            | Texp_lazy _ -> flag ~loc:e.exp_loc "lazy block"
            | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _)
              when a1_alloc_name (strip_stdlib (Path.name p)) ->
                flag ~loc:e.exp_loc ("call to " ^ strip_stdlib (Path.name p))
            | _ -> ());
            Tast_iterator.default_iterator.expr sub e);
      }
    in
    it.expr it e
  (* descend through the binding's own curried/multi-case spine
     without flagging it: the outermost lambdas are the function
     itself, not per-call closure allocations *)
  and spine (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Texp_function { cases; _ } ->
        List.iter
          (fun (c : Typedtree.value Typedtree.case) ->
            Option.iter deep c.c_guard;
            spine c.c_rhs)
          cases
    | _ -> deep e
  in
  spine f.f_expr

(* ----- driver ----- *)

let check (prog : Effects.program) =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun h ->
      if not (prog.Effects.pr_sanctioned h.h_uc.uc_file) then begin
        List.iter (fun f -> find_sites prog h emit f.f_expr) h.h_fns;
        List.iter (find_sites prog h emit) h.h_scripts
      end)
    prog.Effects.pr_harvested;
  SMap.iter
    (fun _ f ->
      if f.f_hot && not (prog.Effects.pr_sanctioned f.f_file) then
        check_hot_fn emit f)
    prog.Effects.pr_by_key;
  List.rev !findings
