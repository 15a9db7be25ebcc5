(* Incremental evaluation of sequence-pair floorplans.

   The historical annealer re-packed the whole sequence pair (O(n^2)),
   allocated a fresh layout and re-summed HPWL over every net on every
   proposed move. This engine keeps a mutable position arena and a
   per-net HPWL cache keyed off the Netlist.Netview incidence index:
   each evaluation repacks with the O(n log n) Seqpair.pack_into into
   reusable scratch, rewrites only the islands whose packed position
   (or mirrored content) changed, re-evaluates only the nets incident
   to those islands, and re-sums the cache in net-id order. Terminal
   offsets, device half-extents and ordering-chain pairs are flattened
   into arrays at construction, and islands already store their members
   as arrays, so the per-move path allocates nothing but a mirrored
   island.

   Bit-equality with the historical path is a hard invariant (the
   pool's determinism contract extends through it): maxima are
   order-insensitive, so the fast pack matches the quadratic longest
   path exactly; untouched nets keep their cached span verbatim; and
   the cache is summed in the same net order as Layout.hpwl's fold.
   The [check_every] debug mode asserts the invariant at runtime. *)

type state = {
  circuit : Netlist.Circuit.t;
  mutable islands : Island.t array;
  sp : Seqpair.t;
  widths : float array;  (* per island, kept in sync with islands *)
  heights : float array;
}

let make_state rng c =
  let islands = Array.of_list (Island.decompose c) in
  let n = Array.length islands in
  {
    circuit = c;
    islands;
    sp = Seqpair.random rng n;
    widths = Array.map (fun (i : Island.t) -> i.Island.w) islands;
    heights = Array.map (fun (i : Island.t) -> i.Island.h) islands;
  }

type objective = {
  area_weight : float;
  wl_weight : float;
  order_penalty : float;
  perf : (Netlist.Layout.t -> float) option;
  perf_alpha : float;
}

(* Pending-move undo: permutations are restored by blitting the saved
   copy back; a mirrored island is restored by swapping the old island
   back in (and re-marking the island dirty, since the arena still
   holds the mirrored pin positions). *)
type undo =
  | U_none
  | U_pos
  | U_neg
  | U_both
  | U_island of int * Island.t

type t = {
  st : state;
  obj : objective;
  check_every : int;
  view : Netlist.Netview.t;
  arena : Netlist.Layout.t;  (* mutable position arena, updated in place *)
  packer : Seqpair.packer;
  new_xs : float array;  (* packed island lower-left, this evaluation *)
  new_ys : float array;
  cur_xs : float array;  (* island coordinates the caches reflect *)
  cur_ys : float array;
  force_dirty : bool array;  (* island content changed (mirror move) *)
  island_nets : int array array;  (* per island: incident active net ids *)
  active_ids : int array;  (* ascending; summation order of the cache *)
  net_cache : float array;  (* per net id: weight * HPWL at cur positions *)
  net_mark : int array;  (* eval stamp when last marked dirty *)
  dirty_nets : int array;  (* scratch list of nets to re-evaluate *)
  mutable stamp : int;
  (* per-device half extents: 0.5 * w, 0.5 * h *)
  dev_hw : float array;
  dev_hh : float array;
  (* per net: terminal devices and their pin offsets, plain and
     x/y-flipped (Orient.apply_offset precomputed for both flips) *)
  net_weight : float array;
  term_dev : int array array;
  term_ox : float array array;  (* pin offset, unflipped *)
  term_oy : float array array;
  term_fox : float array array;  (* w - ox: offset when fx is set *)
  term_foy : float array array;  (* h - oy: offset when fy is set *)
  (* ordering-chain pairs, flattened in constraint order *)
  ord_a : int array;
  ord_b : int array;
  ord_ha : float array;  (* half extent of a along the chain direction *)
  ord_hb : float array;
  ord_is_x : bool array;  (* Left_to_right vs Bottom_to_top *)
  (* cost normalisation, captured from the initial configuration *)
  mutable area0 : float;
  mutable hpwl0 : float;
  mutable span0 : float;
  save_pos : int array;  (* undo scratch *)
  save_neg : int array;
  mutable undo : undo;
  mutable evals : int;
  mutable pending_hits : int;  (* cache hits not yet flushed to telemetry *)
}

exception Check_failed of string

let cache_hits_counter = Telemetry.Counter.make "sa.cache_hits"
let full_repacks_counter = Telemetry.Counter.make "sa.full_repacks"

let state t = t.st
let objective t = t.obj

(* Weighted span of one net at the arena's current positions. Exactly
   Layout.net_hpwl's arithmetic (pin offset, centre-to-corner shift,
   running min/max) over the flattened terminal arrays. *)
let weighted_span (t : t) e_id =
  let td = t.term_dev.(e_id) in
  let pox = t.term_ox.(e_id) and poy = t.term_oy.(e_id) in
  let fox = t.term_fox.(e_id) and foy = t.term_foy.(e_id) in
  let xs = t.arena.Netlist.Layout.xs and ys = t.arena.Netlist.Layout.ys in
  let orients = t.arena.Netlist.Layout.orients in
  let xmin = ref infinity and xmax = ref neg_infinity in
  let ymin = ref infinity and ymax = ref neg_infinity in
  for k = 0 to Array.length td - 1 do
    let dev = td.(k) in
    let o = orients.(dev) in
    let ox = if o.Geometry.Orient.fx then fox.(k) else pox.(k) in
    let oy = if o.Geometry.Orient.fy then foy.(k) else poy.(k) in
    let px = xs.(dev) -. t.dev_hw.(dev) +. ox in
    let py = ys.(dev) -. t.dev_hh.(dev) +. oy in
    if px < !xmin then xmin := px;
    if px > !xmax then xmax := px;
    if py < !ymin then ymin := py;
    if py > !ymax then ymax := py
  done;
  t.net_weight.(e_id) *. (!xmax -. !xmin +. (!ymax -. !ymin))
[@@placer_lint.hot]

(* Repack and bring the arena and the net cache up to date with the
   current state, touching only what moved since the last evaluation. *)
let refresh t =
  let st = t.st in
  let n = Array.length st.islands in
  t.stamp <- t.stamp + 1;
  Seqpair.pack_into t.packer st.sp ~widths:st.widths ~heights:st.heights
    ~xs:t.new_xs ~ys:t.new_ys;
  let n_dirty = ref 0 in
  for b = 0 to n - 1 do
    if
      t.force_dirty.(b)
      || not (Float.equal t.new_xs.(b) t.cur_xs.(b))
      || not (Float.equal t.new_ys.(b) t.cur_ys.(b))
    then begin
      t.force_dirty.(b) <- false;
      t.cur_xs.(b) <- t.new_xs.(b);
      t.cur_ys.(b) <- t.new_ys.(b);
      Island.place st.islands.(b) ~xs:t.new_xs ~ys:t.new_ys b t.arena;
      let nets = t.island_nets.(b) in
      for i = 0 to Array.length nets - 1 do
        let e = nets.(i) in
        if t.net_mark.(e) <> t.stamp then begin
          t.net_mark.(e) <- t.stamp;
          t.dirty_nets.(!n_dirty) <- e;
          incr n_dirty
        end
      done
    end
  done;
  for k = 0 to !n_dirty - 1 do
    let e = t.dirty_nets.(k) in
    t.net_cache.(e) <- weighted_span t e
  done;
  t.pending_hits <- t.pending_hits + (Array.length t.active_ids - !n_dirty)
[@@placer_lint.hot]

(* Cache re-sum in ascending net id — the order Layout.hpwl folds in,
   so the total is bit-identical to the full fold (inactive nets
   contribute exactly +0.0 there). *)
let hpwl_of_cache t =
  let acc = ref 0.0 in
  for k = 0 to Array.length t.active_ids - 1 do
    acc := !acc +. t.net_cache.(t.active_ids.(k))
  done;
  !acc
[@@placer_lint.hot]

(* Die bounding box over device rectangles, replicating
   Rect.of_center/bounding_box arithmetic without the intermediate
   list. Returns (area, max-side span). *)
let area_span t =
  let nd = Netlist.Layout.n_devices t.arena in
  let xs = t.arena.Netlist.Layout.xs and ys = t.arena.Netlist.Layout.ys in
  if nd = 0 then (0.0, 0.0)
  else begin
    let x0 = ref infinity and x1 = ref neg_infinity in
    let y0 = ref infinity and y1 = ref neg_infinity in
    for i = 0 to nd - 1 do
      let hw = t.dev_hw.(i) and hh = t.dev_hh.(i) in
      if xs.(i) -. hw < !x0 then x0 := xs.(i) -. hw;
      if xs.(i) +. hw > !x1 then x1 := xs.(i) +. hw;
      if ys.(i) -. hh < !y0 then y0 := ys.(i) -. hh;
      if ys.(i) +. hh > !y1 then y1 := ys.(i) +. hh
    done;
    let w = !x1 -. !x0 and h = !y1 -. !y0 in
    (w *. h, Float.max w h)
  end

let order_violation_cost l =
  List.fold_left
    (fun acc v ->
      match v with
      | Netlist.Checks.Ordering { gap; _ } -> acc +. Float.max 0.0 (-.gap)
      | Netlist.Checks.Overlap _ | Netlist.Checks.Symmetry _
      | Netlist.Checks.Alignment _ -> acc)
    0.0
    (Netlist.Checks.ordering_violations l)

(* Ordering penalty over the flattened chain pairs, at the arena's
   positions. Checks.ordering_violations reports a pair iff
   gap < -tol; the historical fold then adds max(0, -gap) = -gap
   (positive since gap < -tol < 0), in chain order — replicated here
   without building the violation list. *)
let ordering_penalty t =
  let xs = t.arena.Netlist.Layout.xs and ys = t.arena.Netlist.Layout.ys in
  let acc = ref 0.0 in
  for k = 0 to Array.length t.ord_a - 1 do
    let a = t.ord_a.(k) and b = t.ord_b.(k) in
    let gap =
      if t.ord_is_x.(k) then
        xs.(b) -. t.ord_hb.(k) -. (xs.(a) +. t.ord_ha.(k))
      else ys.(b) -. t.ord_hb.(k) -. (ys.(a) +. t.ord_ha.(k))
    in
    if gap < -1e-4 then acc := !acc +. -.gap
  done;
  !acc
[@@placer_lint.hot]

let combine t ~area ~hpwl ~ord layout =
  let base =
    (* placer-lint: allow N2 area0 is clamped >= 1e-9 by Float.max in set_baseline *)
    (t.obj.area_weight *. (area /. t.area0))
    (* placer-lint: allow N2 hpwl0 is clamped >= 1e-9 by Float.max in set_baseline *)
    +. (t.obj.wl_weight *. (hpwl /. t.hpwl0))
    (* placer-lint: allow N2 span0 is clamped >= 1.0 by Float.max in set_baseline *)
    +. (t.obj.order_penalty *. (ord /. t.span0))
  in
  match t.obj.perf with
  | None -> base
  | Some phi -> base +. (t.obj.perf_alpha *. phi layout)

(* From-scratch reference evaluation: quadratic pack, fresh layout,
   Layout.area/hpwl. Bypasses every cache. *)
let full_cost t =
  Telemetry.Counter.incr full_repacks_counter;
  let st = t.st in
  let xs, ys = Seqpair.pack st.sp ~widths:st.widths ~heights:st.heights in
  let l = Netlist.Layout.create st.circuit in
  Array.iteri (fun b isl -> Island.place isl ~xs ~ys b l) st.islands;
  combine t ~area:(Netlist.Layout.area l) ~hpwl:(Netlist.Layout.hpwl l)
    ~ord:(order_violation_cost l) l

let flush_counters t =
  if t.pending_hits > 0 then begin
    Telemetry.Counter.add cache_hits_counter t.pending_hits;
    t.pending_hits <- 0
  end

let cost t =
  refresh t;
  let area, _span = area_span t in
  let hpwl = hpwl_of_cache t in
  let ord = ordering_penalty t in
  let c = combine t ~area ~hpwl ~ord t.arena in
  t.evals <- t.evals + 1;
  if t.check_every > 0 && t.evals mod t.check_every = 0 then begin
    let reference = full_cost t in
    if Float.compare c reference <> 0 then
      raise
        (Check_failed
           (Printf.sprintf
              "Eval: incremental cost %.17g <> full recomputation %.17g \
               (%s, eval %d)"
              c reference t.st.circuit.Netlist.Circuit.name t.evals))
  end;
  c

let make ?(check_every = 0) obj (st : state) =
  let c = st.circuit in
  let n = Array.length st.islands in
  let nd = Netlist.Circuit.n_devices c in
  let view = Netlist.Netview.of_circuit c in
  let n_nets = Netlist.Netview.n_nets view in
  let island_nets =
    Array.map
      (fun (isl : Island.t) ->
        Array.to_list isl.Island.devs
        |> List.concat_map (fun d ->
               Array.to_list (Netlist.Netview.nets_of_device view d))
        |> List.sort_uniq compare
        |> List.filter (Netlist.Netview.active view)
        |> Array.of_list)
      st.islands
  in
  let dev_hw = Array.make nd 0.0 and dev_hh = Array.make nd 0.0 in
  for i = 0 to nd - 1 do
    let d = Netlist.Circuit.device c i in
    dev_hw.(i) <- 0.5 *. d.Netlist.Device.w;
    dev_hh.(i) <- 0.5 *. d.Netlist.Device.h
  done;
  let net_weight = Array.make n_nets 0.0 in
  let term_dev = Array.make n_nets [||] in
  let term_ox = Array.make n_nets [||] and term_oy = Array.make n_nets [||] in
  let term_fox = Array.make n_nets [||] and term_foy = Array.make n_nets [||] in
  for e = 0 to n_nets - 1 do
    let net = Netlist.Circuit.net c e in
    let terms = net.Netlist.Net.terminals in
    let k = Array.length terms in
    net_weight.(e) <- net.Netlist.Net.weight;
    term_dev.(e) <- Array.make k 0;
    term_ox.(e) <- Array.make k 0.0;
    term_oy.(e) <- Array.make k 0.0;
    term_fox.(e) <- Array.make k 0.0;
    term_foy.(e) <- Array.make k 0.0;
    for i = 0 to k - 1 do
      let tm = terms.(i) in
      let d = Netlist.Circuit.device c tm.Netlist.Net.dev in
      let p = d.Netlist.Device.pins.(tm.Netlist.Net.pin) in
      term_dev.(e).(i) <- tm.Netlist.Net.dev;
      term_ox.(e).(i) <- p.Netlist.Device.ox;
      term_oy.(e).(i) <- p.Netlist.Device.oy;
      term_fox.(e).(i) <- d.Netlist.Device.w -. p.Netlist.Device.ox;
      term_foy.(e).(i) <- d.Netlist.Device.h -. p.Netlist.Device.oy
    done
  done;
  let ord_pairs =
    List.concat_map
      (fun (o : Netlist.Constraint_set.order_chain) ->
        let rec pairs = function
          | a :: (b :: _ as rest) -> (a, b, o.Netlist.Constraint_set.order_dir) :: pairs rest
          | _ -> []
        in
        pairs o.Netlist.Constraint_set.chain)
      c.Netlist.Circuit.constraints.Netlist.Constraint_set.orders
  in
  let n_ord = List.length ord_pairs in
  let ord_a = Array.make n_ord 0 and ord_b = Array.make n_ord 0 in
  let ord_ha = Array.make n_ord 0.0 and ord_hb = Array.make n_ord 0.0 in
  let ord_is_x = Array.make n_ord false in
  List.iteri
    (fun k (a, b, dir) ->
      ord_a.(k) <- a;
      ord_b.(k) <- b;
      match dir with
      | Netlist.Constraint_set.Left_to_right ->
          ord_is_x.(k) <- true;
          ord_ha.(k) <- dev_hw.(a);
          ord_hb.(k) <- dev_hw.(b)
      | Netlist.Constraint_set.Bottom_to_top ->
          ord_is_x.(k) <- false;
          ord_ha.(k) <- dev_hh.(a);
          ord_hb.(k) <- dev_hh.(b))
    ord_pairs;
  let t =
    {
      st;
      obj;
      check_every;
      view;
      arena = Netlist.Layout.create c;
      packer = Seqpair.packer n;
      new_xs = Array.make n 0.0;
      new_ys = Array.make n 0.0;
      cur_xs = Array.make n nan;  (* <> any packed value: all dirty *)
      cur_ys = Array.make n nan;
      force_dirty = Array.make n false;
      island_nets;
      active_ids = Netlist.Netview.active_nets view;
      net_cache = Array.make n_nets 0.0;
      net_mark = Array.make n_nets 0;
      dirty_nets = Array.make n_nets 0;
      stamp = 0;
      dev_hw;
      dev_hh;
      net_weight;
      term_dev;
      term_ox;
      term_oy;
      term_fox;
      term_foy;
      ord_a;
      ord_b;
      ord_ha;
      ord_hb;
      ord_is_x;
      area0 = 1.0;
      hpwl0 = 1.0;
      span0 = 1.0;
      save_pos = Array.make n 0;
      save_neg = Array.make n 0;
      undo = U_none;
      evals = 0;
      pending_hits = 0;
    }
  in
  (* Initial full evaluation: populate arena and cache, then capture
     the normalisation exactly as the historical annealer did from its
     first realized layout. *)
  Telemetry.Counter.incr full_repacks_counter;
  refresh t;
  let area, span = area_span t in
  t.area0 <- Float.max 1e-9 area;
  t.hpwl0 <- Float.max 1e-9 (hpwl_of_cache t);
  t.span0 <- Float.max 1.0 span;
  t

(* Random move, drawing exactly the variates the historical propose
   drew. The undo is stored, not returned: revert is O(islands). *)
let propose t rng =
  let st = t.st in
  let n = Array.length st.islands in
  match Numerics.Rng.int rng 5 with
  | 0 ->
      Array.blit st.sp.Seqpair.pos 0 t.save_pos 0 n;
      Seqpair.move_swap_pos st.sp rng;
      t.undo <- U_pos
  | 1 ->
      Array.blit st.sp.Seqpair.neg 0 t.save_neg 0 n;
      Seqpair.move_swap_neg st.sp rng;
      t.undo <- U_neg
  | 2 ->
      Array.blit st.sp.Seqpair.pos 0 t.save_pos 0 n;
      Array.blit st.sp.Seqpair.neg 0 t.save_neg 0 n;
      Seqpair.move_swap_both st.sp rng;
      t.undo <- U_both
  | 3 ->
      Array.blit st.sp.Seqpair.pos 0 t.save_pos 0 n;
      Seqpair.move_insert st.sp rng;
      t.undo <- U_pos
  | _ ->
      let b = Numerics.Rng.int rng n in
      let old = st.islands.(b) in
      st.islands.(b) <- Island.mirror_x old;
      t.force_dirty.(b) <- true;
      (* placer-lint: allow A1 the undo record is one two-word block per mirror move (1 in 5 proposals), freed on commit; storing it is the undo protocol *)
      t.undo <- U_island (b, old)
[@@placer_lint.hot]

(* Swap island [b] for a different packing of the same devices (a
   template choice). Unlike the mirror move, the replacement may have a
   different bounding box, so the per-island size arrays are updated —
   and restored on revert. Stores the undo like [propose]. *)
let replace_island t b (isl : Island.t) =
  let st = t.st in
  let old = st.islands.(b) in
  st.islands.(b) <- isl;
  st.widths.(b) <- isl.Island.w;
  st.heights.(b) <- isl.Island.h;
  t.force_dirty.(b) <- true;
  t.undo <- U_island (b, old)

(* Rewrite both permutations outright — the matheuristic window move:
   the caller re-ordered a subset of islands (an exact ILP subproblem)
   and rebuilt the full permutations around it. Pending until
   commit/revert, exactly like [propose]'s swap-both move. *)
let set_order t ~pos ~neg =
  let st = t.st in
  let n = Array.length st.islands in
  if Array.length pos <> n || Array.length neg <> n then
    invalid_arg "Eval.set_order: permutation size mismatch";
  Array.blit st.sp.Seqpair.pos 0 t.save_pos 0 n;
  Array.blit st.sp.Seqpair.neg 0 t.save_neg 0 n;
  Array.blit pos 0 st.sp.Seqpair.pos 0 n;
  Array.blit neg 0 st.sp.Seqpair.neg 0 n;
  t.undo <- U_both
[@@placer_lint.hot]

let commit t = t.undo <- U_none [@@placer_lint.hot]

let revert t =
  let st = t.st in
  let n = Array.length st.islands in
  (match t.undo with
  | U_none -> ()
  | U_pos -> Array.blit t.save_pos 0 st.sp.Seqpair.pos 0 n
  | U_neg -> Array.blit t.save_neg 0 st.sp.Seqpair.neg 0 n
  | U_both ->
      Array.blit t.save_pos 0 st.sp.Seqpair.pos 0 n;
      Array.blit t.save_neg 0 st.sp.Seqpair.neg 0 n
  | U_island (b, old) ->
      st.islands.(b) <- old;
      (* sizes changed only for template swaps; for mirrors this
         rewrites the same values *)
      st.widths.(b) <- old.Island.w;
      st.heights.(b) <- old.Island.h;
      (* the arena still holds the replaced positions *)
      t.force_dirty.(b) <- true);
  t.undo <- U_none
[@@placer_lint.hot]

let snapshot t = Netlist.Layout.copy t.arena
