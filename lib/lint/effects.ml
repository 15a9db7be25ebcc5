(* Interprocedural effect & escape analysis over .cmt Typedtrees.

   The per-expression rules in [Lint] cannot see a [ref] captured into
   a closure that crosses a [Pool.map] boundary: the write site looks
   local, the capture looks innocent, and the race only exists because
   both ends meet at a fan-out. This module supplies the missing whole-
   program view in two phases.

   Phase 1 — summaries. Every top-level function in every scanned unit
   gets an effect summary: the set of module-level globals it writes,
   which of its own parameters it mutates, whether it mutates locally
   allocated state, touches io, draws from the process-global RNG, or
   calls something the analysis cannot resolve. Summaries are computed
   by a fixpoint over the strongly-connected components of the cross-
   unit call graph (Tarjan, callees first), so mutual recursion
   converges. An escape pass classifies each local allocation of
   [ref]/[array]/[Bytes]/mutable-record as task-local or escaping
   (stored into a structure or handed to an unresolved call).

   Phase 2 — fan-out enforcement. Every call to [Pool.map],
   [Pool.map_list] or [Pool.run_all] is a site; the task argument
   (inline lambda, named function, or a composite expression such as
   [List.init n (fun i () -> ...)]) is re-analyzed in "task mode",
   where the environment chain distinguishes the task's own bindings
   from values captured from the enclosing scope:

   - P1: a write to shared (module-level) state inside a task — direct,
     or via a callee whose summary is shared-mutation.
   - P2: a write to a mutable value captured from the enclosing scope
     (still reachable by the caller after the join).
   - R1: any use of an [Rng.t] that is captured or global rather than
     received as the task's own parameter — shared streams make the
     draw order schedule-dependent; pre-split with [Rng.split_n].

   The analysis is precision-biased: findings are emitted only for
   *proven* writes. Unresolved calls (functional values, record-field
   methods, unscanned libraries) set the [unknown_calls] flag on the
   summary and stay quiet. Known soundness gaps, accepted for zero
   false positives: no alias tracking through lets (write targets are
   classified by the syntactic head identifier), and effects routed
   through higher-order stdlib combinators ([|>], [List.iter f]) are
   only seen when the lambda is syntactically inline. [lib/telemetry]
   and [lib/pool] are the sanctioned channel for cross-domain effects
   (per-domain collectors merged deterministically at the join), so
   their functions are given assumed-pure summaries. *)

open Ir

module ISet = Set.Make (Int)

module Summaries = struct
  type kind = Pure | Local_mutation | Shared_mutation

  (* One direct ambient-input read: state a function can observe that
     is not reachable from its arguments. Tokens: "env:<NAME>" /
     "env:?", "clock", "fsread", "hash-order", "dls", "rng", and
     "global:<Dotted.name>" for a deref of module-level mutable
     state. [Deps] closes these over the call graph from every cache
     entry point (rule C1). *)
  type ambient = {
    am_token : string;
    am_file : string;
    am_line : int;
  }

  let ambient_compare a b =
    match String.compare a.am_token b.am_token with
    | 0 -> (
        match String.compare a.am_file b.am_file with
        | 0 -> Int.compare a.am_line b.am_line
        | c -> c)
    | c -> c

  type summary = {
    s_name : string;  (** canonical dotted name, e.g. ["Numerics.Rng.float"] *)
    s_unit : string;  (** compilation unit that defines it *)
    s_file : string;  (** source path as recorded in the .cmt *)
    s_writes_globals : string list;  (** module-level bindings written (sorted) *)
    s_writes_params : int list;  (** 0-based indices of mutated parameters *)
    s_writes_local : bool;  (** mutates locally allocated state *)
    s_io : bool;
    s_global_rng : bool;  (** draws from [Stdlib.Random] *)
    s_unknown_calls : bool;  (** calls something the analysis cannot resolve *)
    s_assumed : bool;  (** sanctioned unit: summary assumed, not computed *)
    s_local_allocs : int;  (** mutable allocations proven task-local *)
    s_escaping_allocs : int;  (** mutable allocations that escape *)
    s_ambient : ambient list;  (** direct ambient-input reads (sorted) *)
    s_hot : bool;  (** carries the [[@@placer_lint.hot]] attribute *)
    s_nonzero_args : int list;
        (** 0-based indices of parameters the function divides by (or
            takes [log] of) without its own guard — callers must pass a
            provably nonzero value. Computed by the numeric pass
            ([Numeric.check]) and patched into the summaries it
            returns; always [[]] straight out of phase 1. *)
  }

  type t = summary SMap.t

  let kind s =
    match s.s_writes_globals with
    | _ :: _ -> Shared_mutation
    | [] ->
        if s.s_writes_local || s.s_writes_params <> [] then Local_mutation
        else Pure

  let kind_name = function
    | Pure -> "pure"
    | Local_mutation -> "local-mutation"
    | Shared_mutation -> "shared-mutation"

  let find t name =
    match SMap.find_opt name t with
    | Some _ as r -> r
    | None -> SMap.find_opt (normalize name) t

  let to_list t = List.map snd (SMap.bindings t)

  let to_string s =
    let b = Buffer.create 80 in
    Buffer.add_string b s.s_name;
    Buffer.add_string b ": ";
    Buffer.add_string b (kind_name (kind s));
    if s.s_writes_params <> [] then
      Buffer.add_string b
        (" params="
        ^ String.concat "," (List.map string_of_int s.s_writes_params));
    if s.s_writes_globals <> [] then
      Buffer.add_string b (" globals=" ^ String.concat "," s.s_writes_globals);
    if s.s_io then Buffer.add_string b " io";
    if s.s_global_rng then Buffer.add_string b " rng";
    if s.s_unknown_calls then Buffer.add_string b " unknown-calls";
    if s.s_local_allocs > 0 || s.s_escaping_allocs > 0 then
      Buffer.add_string b
        (Printf.sprintf " allocs=%d/%d-escaping" s.s_local_allocs
           s.s_escaping_allocs);
    if s.s_ambient <> [] then
      Buffer.add_string b
        (" ambient="
        ^ String.concat ","
            (List.sort_uniq String.compare
               (List.map (fun a -> a.am_token) s.s_ambient)));
    if s.s_nonzero_args <> [] then
      Buffer.add_string b
        (" nonzero-args="
        ^ String.concat "," (List.map string_of_int s.s_nonzero_args));
    if s.s_hot then Buffer.add_string b " hot";
    if s.s_assumed then Buffer.add_string b " (assumed)";
    Buffer.contents b

  let dump t =
    String.concat "\n" (List.map to_string (to_list t))
end

open Summaries

let summary_equal a b =
  List.equal String.equal a.s_writes_globals b.s_writes_globals
  && List.equal Int.equal a.s_writes_params b.s_writes_params
  && Bool.equal a.s_writes_local b.s_writes_local
  && Bool.equal a.s_io b.s_io
  && Bool.equal a.s_global_rng b.s_global_rng
  && Bool.equal a.s_unknown_calls b.s_unknown_calls
  && Int.equal a.s_local_allocs b.s_local_allocs
  && Int.equal a.s_escaping_allocs b.s_escaping_allocs
  && List.equal
       (fun x y -> ambient_compare x y = 0)
       a.s_ambient b.s_ambient
  && List.equal Int.equal a.s_nonzero_args b.s_nonzero_args

(* ----- name tables ----- *)

(* Reading derefs: when the subject classifies to module-level state,
   the read is an ambient input (the write half is D4's business).
   Reads through parameters or locals are not ambient — they arrived
   via the arguments. *)
let deref_names =
  [
    "!"; "Array.get"; "Array.unsafe_get"; "Bytes.get"; "Hashtbl.find";
    "Hashtbl.find_opt"; "Atomic.get"; "Queue.peek";
  ]

(* Pure head-projections — the derefs plus immutable ones: [head (proj
   x ...)] is [head x], so writes through e.g. [row.(i) <- v] where
   [row = m.(k)] classify to [m]. *)
let projections =
  deref_names @ [ "Option.get"; "List.hd"; "List.nth"; "fst"; "snd" ]

let io_names =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "read_line"; "read_int";
    "output_string"; "output_char"; "flush"; "flush_all"; "exit"; "at_exit";
  ]

let io_prefixes = [ "Printf."; "Format."; "Unix."; "In_channel."; "Out_channel." ]

(* Checked before the io prefixes: string formatting allocates, but
   performs no io. *)
let pure_format_names =
  [ "Printf.sprintf"; "Printf.ksprintf"; "Format.sprintf"; "Format.asprintf" ]

let pure_names =
  [
    "+"; "-"; "*"; "/"; "mod"; "land"; "lor"; "lxor"; "lsl"; "lsr"; "asr";
    "+."; "-."; "*."; "/."; "**"; "="; "<>"; "<"; ">"; "<="; ">="; "==";
    "!="; "&&"; "||"; "not"; "@"; "^"; "^^"; "~-"; "~-."; "~+"; "~+.";
    "min"; "max"; "abs"; "abs_float"; "sqrt"; "exp"; "log"; "log10"; "sin";
    "cos"; "tan"; "atan"; "atan2"; "floor"; "ceil"; "mod_float";
    "float_of_int"; "int_of_float"; "truncate"; "string_of_int";
    "int_of_string"; "string_of_float"; "float_of_string"; "string_of_bool";
    "bool_of_string"; "char_of_int"; "int_of_char"; "succ"; "pred";
    "ignore"; "raise"; "raise_notrace"; "failwith"; "invalid_arg";
    "compare"; "infinity"; "nan"; "classify_float";
  ]

let pure_prefixes =
  [
    "Float."; "Int."; "Int32."; "Int64."; "Nativeint."; "Char."; "String.";
    "Bool."; "Fun."; "Option."; "Result."; "List."; "Seq."; "Map."; "Set.";
    "Either."; "Lazy."; "Complex."; "Domain."; "Mutex."; "Condition.";
    "Semaphore."; "Printexc."; "Sys."; "Gc."; "Filename."; "Arg.";
  ]

(* ----- ambient inputs (the C1 lattice) -----

   Checked *before* the pure-name fallthrough in [dispatch_named]:
   "Sys." and "Domain." are in [pure_prefixes] because they mutate
   nothing, but [Sys.getenv] and [Domain.DLS.get] are anything but
   ambient-free. Per-function direct reads land on the summary; the
   closure over the call graph is [Deps]'s job. *)

let env_read_names = [ "Sys.getenv"; "Sys.getenv_opt" ]

let fsread_names =
  [
    "Sys.file_exists"; "Sys.is_directory"; "Sys.readdir"; "Sys.getcwd";
    "open_in"; "open_in_bin"; "input_line"; "input_value"; "really_input";
    "really_input_string"; "input"; "input_char"; "input_byte";
  ]

let fsread_prefixes = [ "In_channel." ]
let dls_names = [ "Domain.DLS.get" ]

let is_rng_type ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) ->
      let n = normalize (Path.name p) in
      String.equal n "Rng.t" || String.ends_with ~suffix:".Rng.t" n
  | _ -> false

(* ----- analysis state ----- *)

type alloc = { mutable a_escapes : bool }

type bind =
  | Bparam of int  (* parameter of the function/task under analysis *)
  | Blocal of alloc option  (* local let; [Some a] if a tracked allocation *)
  | Bfun of string * Typedtree.expression  (* let-bound lambda (binder, body) *)

type acc = {
  mutable c_globals : SSet.t;
  mutable c_params : ISet.t;
  mutable c_local : bool;
  mutable c_io : bool;
  mutable c_rng : bool;
  mutable c_unknown : bool;
  mutable c_allocs : alloc list;
  mutable c_ambient : ambient list;
}

let fresh_acc () =
  {
    c_globals = SSet.empty;
    c_params = ISet.empty;
    c_local = false;
    c_io = false;
    c_rng = false;
    c_unknown = false;
    c_allocs = [];
    c_ambient = [];
  }

type engine = {
  eg_sums : Summaries.t ref;
  eg_fns : fn SMap.t;  (* every harvested function, by key *)
}

let labels_of eng key =
  match SMap.find_opt key eng.eg_fns with
  | Some f -> f.f_body.b_spine.sp_labels
  | None -> []

type task_ctx = {
  t_fanout : string;  (* "Pool.map" etc., for messages *)
  t_emit : Location.t -> rule -> string -> unit;
  t_r1_seen : SSet.t ref;  (* R1 deduped per shared stream per task *)
  t_fun_seen : SSet.t ref;  (* outer lambdas already inlined (recursion guard) *)
}

type site = {
  st_fanout : string;
  st_loc : Location.t;
  st_task : Typedtree.expression option;  (* second Nolabel argument *)
  st_outers : (string, bind) Hashtbl.t list;
  st_uc : unit_ctx;
  st_body : body;  (* the function or script the site is in *)
}

type ctx = {
  cx_eng : engine;
  cx_uc : unit_ctx;
  cx_body : body;
  cx_env : (string, bind) Hashtbl.t;
  cx_outers : (string, bind) Hashtbl.t list;
  cx_acc : acc;
  cx_sites : site Queue.t;
  cx_task : task_ctx option;
}

type target =
  | Tparam of int
  | Tlocal of alloc option
  | Tglobal of string
  | Tcaptured of string * Types.type_expr
  | Topaque

(* ----- small helpers over the Typedtree ----- *)

let rec head_path (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> Some (p, e.exp_type)
  | Texp_field (e1, _, _) -> head_path e1
  | Texp_apply (f, args) -> (
      match (callee_name f, nolabel_args args) with
      | Some n, a :: _ when List.mem n projections -> head_path a
      | _ -> None)
  | _ -> None

(* Topmost lambdas of a composite task expression such as
   [List.init n (fun i () -> ...)] — each is a task closure. Folding
   [b_lambdas] (last first) from the right meets an enclosing lambda
   before the lambdas inside it. *)
let topmost_lambdas b (task : Typedtree.expression) =
  let inside (o : Typedtree.expression) (l : Typedtree.expression) =
    loc_within o.exp_loc l.exp_loc
  in
  List.fold_right
    (fun (lam, _) kept ->
      if inside task lam && not (List.exists (fun k -> inside k lam) kept)
      then lam :: kept
      else kept)
    b.b_lambdas []

let find_summary eng key = SMap.find_opt key !(eng.eg_sums)

let lookup_bind ctx un =
  match Hashtbl.find_opt ctx.cx_env un with
  | Some b -> Some (b, false)
  | None ->
      let rec go = function
        | [] -> None
        | env :: rest -> (
            match Hashtbl.find_opt env un with
            | Some b -> Some (b, true)
            | None -> go rest)
      in
      go ctx.cx_outers

let classify ctx (p : Path.t) ty =
  match p with
  | Path.Pident id -> (
      let un = Ident.unique_name id in
      match lookup_bind ctx un with
      | Some (Bparam i, false) -> Tparam i
      | Some (Blocal a, false) -> Tlocal a
      | Some (Bfun _, false) -> Tlocal None
      | Some (_, true) -> Tcaptured (Ident.name id, ty)
      | None -> (
          match SMap.find_opt un ctx.cx_uc.uc_globals with
          | Some name -> Tglobal name
          | None -> Topaque))
  | _ -> Tglobal (resolve_dotted ctx.cx_uc (Path.name p))

let mark_escape ctx (e : Typedtree.expression) =
  match head_path e with
  | Some (p, ty) -> (
      match classify ctx p ty with
      | Tlocal (Some a) -> a.a_escapes <- true
      | Tparam _ | Tlocal None | Tglobal _ | Tcaptured _ | Topaque -> ())
  | None -> ()

let record_write ctx ~loc ?via target =
  let acc = ctx.cx_acc in
  let via_s =
    match via with
    | Some v -> Printf.sprintf " (via %s)" v
    | None -> ""
  in
  match target with
  | Tparam i -> acc.c_params <- ISet.add i acc.c_params
  | Tlocal _ -> acc.c_local <- true
  | Topaque -> ()
  | Tglobal name -> (
      acc.c_globals <- SSet.add name acc.c_globals;
      match ctx.cx_task with
      | Some t ->
          t.t_emit loc P1
            (Printf.sprintf
               "task passed to %s writes shared state '%s'%s; a cross-domain \
                write breaks serial/parallel bit-identity — accumulate \
                task-locally and merge at the join"
               t.t_fanout name via_s)
      | None -> ())
  | Tcaptured (name, ty) -> (
      acc.c_local <- true;
      match ctx.cx_task with
      | Some t when not (is_rng_type ty) ->
          t.t_emit loc P2
            (Printf.sprintf
               "task passed to %s writes '%s'%s, a mutable captured from the \
                enclosing scope and still reachable after the join; give \
                each task its own state and combine the returned results"
               t.t_fanout name via_s)
      | _ -> ())

let record_ambient ctx ~loc token =
  let line, _ = pos_of loc in
  ctx.cx_acc.c_ambient <-
    { am_token = token; am_file = ctx.cx_uc.uc_file; am_line = line }
    :: ctx.cx_acc.c_ambient

(* A deref whose subject is module-level mutable state is an ambient
   read of that global. *)
let ambient_global ctx ~loc tgt =
  match head_path tgt with
  | Some (p, ty) -> (
      match classify ctx p ty with
      | Tglobal g -> record_ambient ctx ~loc ("global:" ^ g)
      | Tparam _ | Tlocal _ | Tcaptured _ | Topaque -> ())
  | None -> ()

let ambient_named ctx ~loc n raw args =
  if List.mem n env_read_names then
    let token =
      match nolabel_args args with
      | {
          Typedtree.exp_desc =
            Typedtree.Texp_constant (Asttypes.Const_string (v, _, _));
          _;
        }
        :: _ ->
          "env:" ^ v
      | _ -> "env:?"
    in
    record_ambient ctx ~loc token
  else if List.mem n clock_names then record_ambient ctx ~loc "clock"
  else if
    List.mem n fsread_names
    || List.exists
         (fun pfx -> String.starts_with ~prefix:pfx n)
         fsread_prefixes
  then record_ambient ctx ~loc "fsread"
  else if List.mem n hash_order_names then
    record_ambient ctx ~loc "hash-order"
  else if List.mem n dls_names then record_ambient ctx ~loc "dls"
  else if is_global_rng raw then record_ambient ctx ~loc "rng"
  else if List.mem n deref_names then
    match nolabel_args args with
    | tgt :: _ -> ambient_global ctx ~loc tgt
    | [] -> ()

(* ----- the expression walk (shared by both phases) ----- *)

let register_local ctx id b =
  let un = Ident.unique_name id in
  if not (Hashtbl.mem ctx.cx_env un) then Hashtbl.replace ctx.cx_env un b

let register_vb ctx (vb : Typedtree.value_binding) =
  match vb.vb_pat.pat_desc with
  | Typedtree.Tpat_var (id, _) -> (
      match vb.vb_expr.exp_desc with
      | Typedtree.Texp_function _ ->
          register_local ctx id (Bfun (Ident.unique_name id, vb.vb_expr))
      | _ ->
          if mutable_alloc vb.vb_expr then begin
            let a = { a_escapes = false } in
            ctx.cx_acc.c_allocs <- a :: ctx.cx_acc.c_allocs;
            register_local ctx id (Blocal (Some a))
          end
          else register_local ctx id (Blocal None))
  | _ ->
      List.iter
        (fun id -> register_local ctx id (Blocal None))
        (Typedtree.pat_bound_idents vb.vb_pat)

let register_cases : type k. ctx -> k Typedtree.case list -> unit =
 fun ctx cases ->
  List.iter
    (fun (c : k Typedtree.case) ->
      List.iter
        (fun id -> register_local ctx id (Blocal None))
        (Typedtree.pat_bound_idents c.Typedtree.c_lhs))
    cases

let rec walk ctx (e0 : Typedtree.expression) =
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun sub e -> visit ctx sub e);
    }
  in
  it.expr it e0

and visit ctx sub (e : Typedtree.expression) =
  (match e.exp_desc with
  | Texp_let (_, vbs, _) -> List.iter (register_vb ctx) vbs
  | Texp_function { cases; _ } -> register_cases ctx cases
  | Texp_match (_, cases, _) -> register_cases ctx cases
  | Texp_try (_, cases) -> register_cases ctx cases
  | Texp_for (id, _, _, _, _, _) -> register_local ctx id (Blocal None)
  | _ -> ());
  (match e.exp_desc with
  | Texp_apply (fexpr, args) -> handle_call ctx e fexpr args
  | Texp_setfield (tgt, _, _, v) ->
      (match head_path tgt with
      | Some (p, ty) -> record_write ctx ~loc:e.exp_loc (classify ctx p ty)
      | None -> ());
      mark_escape ctx v
  | Texp_ident (p, _, _) -> handle_ident ctx e p
  | Texp_field (e1, _, ld) ->
      if ld.Types.lbl_mut = Asttypes.Mutable then
        ambient_global ctx ~loc:e.exp_loc e1
  | Texp_construct (_, _, args) -> List.iter (mark_escape ctx) args
  | Texp_tuple es -> List.iter (mark_escape ctx) es
  | Texp_array es -> List.iter (mark_escape ctx) es
  | Texp_record { fields; _ } ->
      Array.iter
        (fun (_, def) ->
          match def with
          | Typedtree.Overridden (_, v) -> mark_escape ctx v
          | Typedtree.Kept _ -> ())
        fields
  | _ -> ());
  Tast_iterator.default_iterator.expr sub e

(* R1: inside a task, any use of an Rng stream that is not the task's
   own parameter (or a task-local creation) is a shared stream. *)
and handle_ident ctx (e : Typedtree.expression) p =
  match ctx.cx_task with
  | None -> ()
  | Some t ->
      if is_rng_type e.exp_type then (
        match classify ctx p e.exp_type with
        | Tcaptured (name, _) | Tglobal name ->
            let key =
              match p with
              | Path.Pident id -> Ident.unique_name id
              | _ -> Path.name p
            in
            if not (SSet.mem key !(t.t_r1_seen)) then begin
              t.t_r1_seen := SSet.add key !(t.t_r1_seen);
              t.t_emit e.exp_loc R1
                (Printf.sprintf
                   "Rng stream '%s' is shared across the tasks of %s, making \
                    the draw order schedule-dependent; pre-split with \
                    Rng.split_n and pass one stream per task"
                   name t.t_fanout)
            end
        | Tparam _ | Tlocal _ | Topaque -> ())

and handle_call ctx (e : Typedtree.expression) fexpr args =
  let acc = ctx.cx_acc in
  let unknown () =
    acc.c_unknown <- true;
    List.iter (mark_escape ctx) (nolabel_args args)
  in
  match fexpr.exp_desc with
  | Texp_ident (p, _, _) -> (
      let bfun =
        match p with
        | Path.Pident id -> lookup_bind ctx (Ident.unique_name id)
        | _ -> None
      in
      match bfun with
      | Some (Bfun (bname, lam), from_outer) ->
          (* a let-bound lambda: its body was already walked at its
             definition site if it is in scope of this walk; one bound
             in an *outer* scope (task mode) is inlined here once so
             its effects land in the task context *)
          if from_outer then inline_outer_fun ctx bname lam
      | Some ((Bparam _ | Blocal _), _) -> unknown ()
      | None -> (
          match resolve_call_key ctx.cx_uc p with
          | Some key -> (
              match fanout_of key with
              | Some fanout -> record_site ctx e fanout args
              | None -> (
                  match find_summary ctx.cx_eng key with
                  | Some s ->
                      merge_summary ctx ~loc:e.exp_loc s
                        (labels_of ctx.cx_eng key) args
                  | None ->
                      dispatch_named ctx ~loc:e.exp_loc unknown (Path.name p)
                        args))
          | None ->
              dispatch_named ctx ~loc:e.exp_loc unknown (Path.name p) args))
  | _ -> unknown ()

(* A callee with no summary: stdlib and friends, classified by name. *)
and dispatch_named ctx ~loc unknown raw args =
  let n = strip_stdlib raw in
  let acc = ctx.cx_acc in
  ambient_named ctx ~loc n raw args;
  match List.assoc_opt n write_prims with
  | Some positions ->
      let nolabels = nolabel_args args in
      List.iter
        (fun i ->
          match List.nth_opt nolabels i with
          | Some tgt -> (
              match head_path tgt with
              | Some (p, ty) ->
                  record_write ctx ~loc:tgt.exp_loc (classify ctx p ty)
              | None -> ())
          | None -> ())
        positions;
      (* values stored into the written structure escape with it *)
      List.iteri
        (fun i a -> if not (List.mem i positions) then mark_escape ctx a)
        (nolabel_args args)
  | None ->
      if is_mutable_alloc n || List.mem n projections then ()
      else if List.mem n pure_format_names then ()
      else if
        List.mem n io_names
        || List.exists (fun pfx -> String.starts_with ~prefix:pfx n) io_prefixes
      then acc.c_io <- true
      else if is_global_rng raw then acc.c_rng <- true
      else if
        List.mem n pure_names
        || List.exists
             (fun pfx -> String.starts_with ~prefix:pfx n)
             pure_prefixes
      then ()
      else unknown ()

and merge_summary ctx ~loc s labels args =
  let acc = ctx.cx_acc in
  List.iter
    (fun g -> acc.c_globals <- SSet.add g acc.c_globals)
    s.s_writes_globals;
  if s.s_io then acc.c_io <- true;
  if s.s_global_rng then acc.c_rng <- true;
  if s.s_unknown_calls then acc.c_unknown <- true;
  (match (ctx.cx_task, s.s_writes_globals) with
  | Some t, _ :: _ ->
      t.t_emit loc P1
        (Printf.sprintf
           "task passed to %s calls %s, whose summary is shared-mutation \
            (writes %s); tasks must be pure or local-only"
           t.t_fanout s.s_name
           (String.concat ", " s.s_writes_globals))
  | _ -> ());
  List.iter
    (fun i ->
      match arg_for_param labels args i with
      | Some arg -> (
          match head_path arg with
          | Some (p, ty) ->
              record_write ctx ~loc:arg.exp_loc ~via:s.s_name
                (classify ctx p ty)
          | None -> ())
      | None -> ())
    s.s_writes_params

and inline_outer_fun ctx bname lam =
  match ctx.cx_task with
  | None -> ()
  | Some t ->
      if not (SSet.mem bname !(t.t_fun_seen)) then begin
        t.t_fun_seen := SSet.add bname !(t.t_fun_seen);
        let sp = spine_in ctx.cx_body lam in
        List.iter
          (fun (id, _) ->
            let un = Ident.unique_name id in
            if not (Hashtbl.mem ctx.cx_env un) then
              Hashtbl.replace ctx.cx_env un (Blocal None))
          sp.sp_params;
        walk ctx sp.sp_body
      end

and record_site ctx (e : Typedtree.expression) fanout args =
  let task = List.nth_opt (nolabel_args args) 1 in
  Queue.add
    {
      st_fanout = fanout;
      st_loc = e.exp_loc;
      st_task = task;
      st_outers = ctx.cx_env :: ctx.cx_outers;
      st_uc = ctx.cx_uc;
      st_body = ctx.cx_body;
    }
    ctx.cx_sites

(* ----- phase 1: call graph, SCCs, fixpoint ----- *)

(* Tarjan; emits SCCs callees-first (an SCC is emitted only after every
   SCC it can reach). *)
let sccs_of nodes succs =
  let index = Hashtbl.create 64 in
  let lowlink = Hashtbl.create 64 in
  let on_stack = Hashtbl.create 64 in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strong v =
    Hashtbl.replace index v !next;
    Hashtbl.replace lowlink v !next;
    incr next;
    stack := v :: !stack;
    Hashtbl.replace on_stack v true;
    List.iter
      (fun w ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find lowlink w))
        end
        else if Hashtbl.find_opt on_stack w = Some true then
          Hashtbl.replace lowlink v
            (min (Hashtbl.find lowlink v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find lowlink v = Hashtbl.find index v then begin
      let rec pop scc =
        match !stack with
        | w :: rest ->
            stack := rest;
            Hashtbl.replace on_stack w false;
            if String.equal w v then w :: scc else pop (w :: scc)
        | [] -> scc
      in
      out := pop [] :: !out
    end
  in
  List.iter (fun v -> if not (Hashtbl.mem index v) then strong v) nodes;
  List.rev !out

let summary_of_acc fn ~nparams (acc : acc) =
  let locals, escaping =
    List.partition (fun a -> not a.a_escapes) acc.c_allocs
  in
  {
    s_name = fn.f_key;
    s_unit = fn.f_unit;
    s_file = fn.f_file;
    s_writes_globals = SSet.elements acc.c_globals;
    s_writes_params =
      ISet.elements (ISet.filter (fun i -> i < nparams) acc.c_params);
    s_writes_local = acc.c_local;
    s_io = acc.c_io;
    s_global_rng = acc.c_rng;
    s_unknown_calls = acc.c_unknown;
    s_assumed = false;
    s_local_allocs = List.length locals;
    s_escaping_allocs = List.length escaping;
    s_ambient = List.sort_uniq ambient_compare acc.c_ambient;
    s_hot = fn.f_hot;
    s_nonzero_args = [];
  }

(* A sanctioned unit's functions are assumed pure: the empty summary,
   marked as assumed. *)
let assumed_summary fn =
  { (summary_of_acc fn ~nparams:0 (fresh_acc ())) with s_assumed = true }

let new_ctx ?(outers = []) ?(sites = Queue.create ()) ?task eng uc body env =
  {
    cx_eng = eng;
    cx_uc = uc;
    cx_body = body;
    cx_env = env;
    cx_outers = outers;
    cx_acc = fresh_acc ();
    cx_sites = sites;
    cx_task = task;
  }

(* An environment binding a spine's curried parameters *)
let param_env sp =
  let env = Hashtbl.create 16 in
  List.iter
    (fun (id, i) -> Hashtbl.replace env (Ident.unique_name id) (Bparam i))
    sp.sp_params;
  env

let eval_fn eng uc fn =
  let sp = fn.f_body.b_spine in
  let ctx = new_ctx eng uc fn.f_body (param_env sp) in
  walk ctx sp.sp_body;
  summary_of_acc fn ~nparams:(List.length sp.sp_labels) ctx.cx_acc

(* ----- phase 2: fan-out sites ----- *)

let analyze_task eng st emit queue (lam : Typedtree.expression) =
  let sp = spine_in st.st_body lam in
  let task =
    {
      t_fanout = st.st_fanout;
      t_emit = emit;
      t_r1_seen = ref SSet.empty;
      t_fun_seen = ref SSet.empty;
    }
  in
  walk
    (new_ctx ~outers:st.st_outers ~sites:queue ~task eng st.st_uc st.st_body
       (param_env sp))
    sp.sp_body

let check_site eng emit queue st =
  match st.st_task with
  | None -> ()
  | Some task -> (
      match task.Typedtree.exp_desc with
      | Typedtree.Texp_function _ -> analyze_task eng st emit queue task
      | Typedtree.Texp_ident (p, _, _) -> (
          let bfun =
            match p with
            | Path.Pident id ->
                let un = Ident.unique_name id in
                List.find_map (fun env -> Hashtbl.find_opt env un) st.st_outers
            | _ -> None
          in
          match bfun with
          | Some (Bfun (_, lam)) -> analyze_task eng st emit queue lam
          | Some (Bparam _ | Blocal _) -> ()
          | None -> (
              match resolve_call_key st.st_uc p with
              | Some key -> (
                  match find_summary eng key with
                  | Some s when s.s_writes_globals <> [] ->
                      emit st.st_loc P1
                        (Printf.sprintf
                           "task function %s passed to %s has a \
                            shared-mutation summary (writes %s); tasks must \
                            be pure or local-only"
                           s.s_name st.st_fanout
                           (String.concat ", " s.s_writes_globals))
                  | Some _ | None -> ())
              | None -> ()))
      | _ ->
          (* composite: e.g. thunk lists built with List.init/List.map *)
          List.iter (analyze_task eng st emit queue)
            (topmost_lambdas st.st_body task))

(* ----- driver ----- *)

(* Everything the dependence pass ([Deps]) needs from phase 1: the
   harvested units (typed trees + per-unit name tables), the finished
   summaries and function table behind the engine, and the
   reference-closure call graph. *)
type program = {
  pr_harvested : harvested list;
  pr_eng : engine;
  pr_edges : (string, string list) Hashtbl.t;
  pr_known : SSet.t;
  pr_sanctioned : string -> bool;
}

let analyze ~sanctioned harvested =
  let ucs =
    List.fold_left
      (fun m h -> SMap.add h.h_unit h.h_uc m)
      SMap.empty harvested
  in
  let fns = List.concat_map (fun h -> h.h_fns) harvested in
  let by_key =
    List.fold_left (fun m f -> SMap.add f.f_key f m) SMap.empty fns
  in
  let sums =
    ref
      (List.fold_left
         (fun m f ->
           let s =
             if sanctioned f.f_file then assumed_summary f
             else summary_of_acc f ~nparams:0 (fresh_acc ())
           in
           SMap.add f.f_key s m)
         SMap.empty fns)
  in
  let eng = { eg_sums = sums; eg_fns = by_key } in
  (* call graph over computed (non-sanctioned) functions *)
  let known =
    List.fold_left
      (fun s f -> if sanctioned f.f_file then s else SSet.add f.f_key s)
      SSet.empty fns
  in
  let edges = Hashtbl.create 256 in
  List.iter
    (fun f ->
      if not (sanctioned f.f_file) then
        Hashtbl.replace edges f.f_key
          (SSet.elements (SSet.inter known (callees f.f_body))))
    fns;
  let succs key = Option.value ~default:[] (Hashtbl.find_opt edges key) in
  let sccs = sccs_of (SSet.elements known) succs in
  List.iter
    (fun scc ->
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < 20 do
        changed := false;
        incr rounds;
        List.iter
          (fun key ->
            let fn = SMap.find key by_key in
            let uc = SMap.find fn.f_unit ucs in
            let s = eval_fn eng uc fn in
            let old = SMap.find key !sums in
            if not (summary_equal old s) then begin
              changed := true;
              sums := SMap.add key s !sums
            end)
          scc
      done)
    sccs;
  (* phase 2 *)
  let findings = ref [] in
  List.iter
    (fun h ->
      if not (sanctioned h.h_uc.uc_file) then begin
        let emit loc rule msg =
          findings := finding ~file:h.h_uc.uc_file loc rule msg :: !findings
        in
        let queue = Queue.create () in
        List.iter
          (fun f ->
            let sp = f.f_body.b_spine in
            walk
              (new_ctx ~sites:queue eng h.h_uc f.f_body (param_env sp))
              sp.sp_body)
          h.h_fns;
        List.iter
          (fun b ->
            walk
              (new_ctx ~sites:queue eng h.h_uc b (Hashtbl.create 16))
              b.b_expr)
          h.h_scripts;
        while not (Queue.is_empty queue) do
          check_site eng emit queue (Queue.pop queue)
        done
      end)
    harvested;
  let program =
    {
      pr_harvested = harvested;
      pr_eng = eng;
      pr_edges = edges;
      pr_known = known;
      pr_sanctioned = sanctioned;
    }
  in
  (List.rev !findings, program)
