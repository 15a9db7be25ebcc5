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

(* ----- free identifiers of a sub-expression -----

   Sorted (unique name, name) pairs from [Ir.free_in]. [~reads_only]
   drops bare write-targets ([x := e], [incr x], [decr x] where the
   target is the identifier itself): a captured ref the thunk only
   ever writes is not an input to the cached value. *)

let idents ?(reads_only = false) b (e : Typedtree.expression) =
  List.filter_map
    (fun o ->
      if reads_only && o.o_write then None else Some (o.o_un, o.o_name))
    (free_in b e.exp_loc)
  |> List.sort_uniq compare

(* Expand an identifier through the let-environment of body [b] to its
   root set: parameters of the enclosing function (no definition in
   [b_defs]).
   Top-level functions and module-level globals are dropped — calls
   are inputs only through their arguments (already walked), and
   module-level *mutable* reads are C1's domain, not C2's. *)
let roots_of prog_uc b names un0 =
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
              match SMap.find_opt un b.b_defs with
              | None -> SSet.singleton un
              | Some e ->
                  List.fold_left
                    (fun acc (u, nm) ->
                      Hashtbl.replace names u nm;
                      SSet.union acc (go (SSet.add un visiting) u))
                    SSet.empty
                    (idents ~reads_only:true b e)
          in
          Hashtbl.replace memo un r;
          r
  in
  go SSet.empty un0

let roots_of_expr prog_uc b names e =
  List.fold_left
    (fun acc (un, nm) ->
      Hashtbl.replace names un nm;
      SSet.union acc (roots_of prog_uc b names un))
    SSet.empty
    (idents ~reads_only:true b e)

(* ----- the thunk's ambient closure (C1) ----- *)

(* The thunk lambda of body [b] and the local helper lambdas it
   reaches through let-bound names: their reads, captures and calls
   are the thunk's too. *)
let thunk_lambdas b lam =
  let rec grow seen (l : Typedtree.expression) =
    if List.memq l seen then seen
    else
      List.fold_left
        (fun seen (un, _) ->
          match SMap.find_opt un b.b_defs with
          | Some ({ Typedtree.exp_desc = Texp_function _; _ } as le) ->
              grow seen le
          | _ -> seen)
        (l :: seen) (idents b l)
  in
  grow [] lam

(* Re-walk the thunk lambdas with the effects machinery (no task
   context) to collect their *direct* ambient reads, plus their
   referenced summarized functions. *)
let thunk_closure prog h b lams =
  let ambs, seeds =
    List.fold_left
      (fun (ambs, seeds) (l : Typedtree.expression) ->
        let sp = spine_in b l in
        let ctx =
          Effects.new_ctx prog.Effects.pr_eng h.h_uc b (Effects.param_env sp)
        in
        Effects.walk ctx sp.sp_body;
        ( ctx.Effects.cx_acc.Effects.c_ambient @ ambs,
          SSet.union seeds
            (SSet.inter prog.Effects.pr_known (callees ~within:l.exp_loc b)) ))
      ([], SSet.empty) lams
  in
  (List.sort_uniq Effects.Summaries.ambient_compare ambs, SSet.elements seeds)

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
      match SMap.find_opt (Ident.unique_name id) defs with
      | Some d when d != e -> resolve_thunk defs d
      | _ -> None)
  | _ -> None

let check_site prog h b emit ~loc args =
  let site_file = h.h_uc.uc_file in
  let site_line, _ = pos_of loc in
  let nolabels = nolabel_args args in
  let handle_expr = List.nth_opt nolabels 0 in
  let thunk_expr = List.nth_opt nolabels 1 in
  let key_expr = labelled_arg args "key" in
  match (thunk_expr, Option.bind thunk_expr (resolve_thunk b.b_defs)) with
  | None, _ | _, None -> ()  (* partial application / opaque thunk *)
  | Some _, Some lam ->
      let sums = !(prog.Effects.pr_eng.Effects.eg_sums) in
      (* C1: ambient closure *)
      let lams = thunk_lambdas b lam in
      let direct_ambs, seeds = thunk_closure prog h b lams in
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
          let key_roots = roots_of_expr uc b names ke in
          let handle_roots =
            match handle_expr with
            | Some he -> roots_of_expr uc b names he
            | None -> SSet.empty
          in
          let thunk_reads =
            List.concat_map (idents ~reads_only:true b) lams
          in
          let thunk_roots =
            List.fold_left
              (fun acc (un, nm) ->
                Hashtbl.replace names un nm;
                SSet.union acc (roots_of uc b names un))
              SSet.empty thunk_reads
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

let find_sites prog h emit b =
  List.iter
    (fun r ->
      match r.r_args with
      | Some args when is_cache_entry r.r_key ->
          check_site prog h b emit ~loc:r.r_loc args
      | _ -> ())
    b.b_refs

(* ----- A1: allocation inside [@@placer_lint.hot] functions ----- *)

(* [ref] cells are exempt (see the header comment): [alloc_of] gives
   them no description *)
let check_hot_fn emit f =
  List.iter
    (fun a ->
      Option.iter
        (fun desc ->
          emit
            (finding ~file:f.f_file a.a_loc A1
               (Printf.sprintf
                  "heap allocation (%s) inside hot function %s \
                   ([@@placer_lint.hot]); the per-move path must stay \
                   allocation-free — hoist the storage into the engine \
                   state or allow with the reason"
                  desc f.f_key)))
        a.a_what)
    f.f_body.b_allocs

(* ----- driver ----- *)

let check (prog : Effects.program) =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun h ->
      if not (prog.Effects.pr_sanctioned h.h_uc.uc_file) then begin
        List.iter (fun f -> find_sites prog h emit f.f_body) h.h_fns;
        List.iter (find_sites prog h emit) h.h_scripts
      end)
    prog.Effects.pr_harvested;
  SMap.iter
    (fun _ f ->
      if f.f_hot && not (prog.Effects.pr_sanctioned f.f_file) then
        check_hot_fn emit f)
    prog.Effects.pr_eng.Effects.eg_fns;
  List.rev !findings
