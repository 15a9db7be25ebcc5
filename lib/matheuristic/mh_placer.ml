(* Matheuristic cycle: SA global moves through the incremental Eval
   engine, alternating with exact ILP re-optimization of island
   windows (Window_ilp). The ILP is a proposal generator, not an
   oracle: a window optimum minimizes a linearized local surrogate
   (window HPWL + envelope), so each proposed re-ordering is re-priced
   by the true incremental cost and committed only if it does not
   regress — the engine's bit-equality contract survives the exact
   phase untouched. *)

module Island = Annealing.Island
module Eval = Annealing.Eval
module Sa_placer = Annealing.Sa_placer
module Seqpair = Annealing.Seqpair

type params = {
  sa : Sa_placer.params;
  cycles : int;
  window : int;
  node_budget : int;
  walk_neg : bool;
}

let default_params =
  {
    sa =
      { Sa_placer.default_params with
        Sa_placer.restarts = 1;
        moves = Sa_placer.default_params.Sa_placer.moves / 8 };
    cycles = 4;
    window = 4;
    node_budget = 50;
    walk_neg = false;
  }

let windows_counter = Telemetry.Counter.make "mh.windows"
let win_accept_counter = Telemetry.Counter.make "mh.window_accepts"
let win_reject_counter = Telemetry.Counter.make "mh.window_rejects"
let win_proved_counter = Telemetry.Counter.make "mh.windows_proved"

(* Per-anneal window scratch, sized once: device->item and
   device->member maps (a member's offsets are read from its island),
   island membership, and the permutation buffers a window rewrite
   builds into. Only entries
   belonging to the current window are ever written, and they are
   cleared again when the window is done. *)
type scratch = {
  view : Netlist.Netview.t;
  dev_item : int array;  (* device id -> window item index, or -1 *)
  dev_member : int array;  (* device id -> member index in its island *)
  in_window : bool array;  (* island id -> member of current window *)
  pos_buf : int array;
  neg_buf : int array;
}

let make_scratch c n_islands =
  let nd = Netlist.Circuit.n_devices c in
  {
    view = Netlist.Netview.of_circuit c;
    dev_item = Array.make nd (-1);
    dev_member = Array.make nd 0;
    in_window = Array.make n_islands false;
    pos_buf = Array.make n_islands 0;
    neg_buf = Array.make n_islands 0;
  }

let mark sc (st : Eval.state) ws =
  Array.iteri
    (fun it b ->
      sc.in_window.(b) <- true;
      Array.iteri
        (fun i d ->
          sc.dev_item.(d) <- it;
          sc.dev_member.(d) <- i)
        st.Eval.islands.(b).Island.devs)
    ws

let unmark sc (st : Eval.state) ws =
  Array.iter
    (fun b ->
      sc.in_window.(b) <- false;
      Array.iter (fun d -> sc.dev_item.(d) <- -1) st.Eval.islands.(b).Island.devs)
    ws

(* Cut the window [ws] (island ids, already marked in [sc]) out of the
   engine's current arena. Requires the arena to be in sync with the
   state (call [Eval.cost] first). The frame is the bounding box the
   window's islands occupy in the current packing: sequence-pair
   packing separates any left-of (above) chain by at least the chain's
   summed widths (heights), so the current relative ordering is always
   feasible inside it and the ILP optimum can never price worse than
   the configuration we are trying to beat. Orderings that need more
   room than the window occupies today are priced out, which is the
   compaction pressure the true cost's area term exerts. Pins outside
   the window are frozen at their snapshot positions, clamped to the
   frame — the clamp keeps the LP non-negative and caps the pull of
   far-away pins without losing its direction. *)
let build_inst eng sc (ws : int array) =
  let st = Eval.state eng in
  let c = st.Eval.circuit in
  let snap = Eval.snapshot eng in
  let items =
    Array.map
      (fun b -> { Window_ilp.iw = st.Eval.widths.(b); ih = st.Eval.heights.(b) })
      ws
  in
  let net_ids =
    Array.to_list ws
    |> List.concat_map (fun b ->
           Array.to_list st.Eval.islands.(b).Island.devs
           |> List.concat_map (fun d ->
                  Array.to_list (Netlist.Netview.nets_of_device sc.view d)))
    |> List.sort_uniq compare
    |> List.filter (Netlist.Netview.active sc.view)
  in
  (* current bounding box of the window's islands (layout stores
     device centres; an island's lower-left is any member's centre
     minus its within-island centre offset) *)
  let minx = ref infinity and maxx = ref neg_infinity in
  let miny = ref infinity and maxy = ref neg_infinity in
  Array.iter
    (fun b ->
      let isl = st.Eval.islands.(b) in
      if Array.length isl.Island.devs > 0 then begin
        let d = isl.Island.devs.(0) in
        let llx = snap.Netlist.Layout.xs.(d) -. isl.Island.dx.(0) in
        let lly = snap.Netlist.Layout.ys.(d) -. isl.Island.dy.(0) in
        if llx < !minx then minx := llx;
        if lly < !miny then miny := lly;
        if llx +. st.Eval.widths.(b) > !maxx then
          maxx := llx +. st.Eval.widths.(b);
        if lly +. st.Eval.heights.(b) > !maxy then
          maxy := lly +. st.Eval.heights.(b)
      end)
    ws;
  let ox0 = !minx and oy0 = !miny in
  (* tiny slack absorbs the round-off of re-deriving pack sums *)
  let frame_w = !maxx -. !minx +. 1e-6 in
  let frame_h = !maxy -. !miny +. 1e-6 in
  let clamp v hi = Float.max 0.0 (Float.min hi v) in
  let weight_sum = ref 0.0 in
  let nets =
    List.map
      (fun e ->
        let net = Netlist.Circuit.net c e in
        weight_sum := !weight_sum +. net.Netlist.Net.weight;
        (* The HPWL bound rows only ever bind at a pin set's per-axis
           min/max, so pins collapse losslessly to bounding corners:
           the net's frozen pins to one or two absolute corners (rails
           touching a hundred outside devices would otherwise dominate
           the LP), and its member pins to per-item offset corners. *)
        let fminx = ref infinity and fmaxx = ref neg_infinity in
        let fminy = ref infinity and fmaxy = ref neg_infinity in
        let k = Array.length ws in
        let iminx = Array.make k infinity
        and imaxx = Array.make k neg_infinity
        and iminy = Array.make k infinity
        and imaxy = Array.make k neg_infinity in
        Array.iter
          (fun (tm : Netlist.Net.terminal) ->
            let d = tm.Netlist.Net.dev in
            if sc.dev_item.(d) >= 0 then begin
              let it = sc.dev_item.(d) and i = sc.dev_member.(d) in
              let isl = st.Eval.islands.(ws.(it)) in
              let dd = Netlist.Circuit.device c d in
              let pn = dd.Netlist.Device.pins.(tm.Netlist.Net.pin) in
              let ox', oy' =
                Geometry.Orient.apply_offset isl.Island.orient.(i)
                  ~w:dd.Netlist.Device.w ~h:dd.Netlist.Device.h
                  ~ox:pn.Netlist.Device.ox ~oy:pn.Netlist.Device.oy
              in
              let px =
                isl.Island.dx.(i) -. (0.5 *. dd.Netlist.Device.w) +. ox'
              in
              let py =
                isl.Island.dy.(i) -. (0.5 *. dd.Netlist.Device.h) +. oy'
              in
              if px < iminx.(it) then iminx.(it) <- px;
              if px > imaxx.(it) then imaxx.(it) <- px;
              if py < iminy.(it) then iminy.(it) <- py;
              if py > imaxy.(it) then imaxy.(it) <- py
            end
            else begin
              let pt = Netlist.Layout.pin_position snap tm in
              let x = clamp (pt.Geometry.Point.x -. ox0) frame_w in
              let y = clamp (pt.Geometry.Point.y -. oy0) frame_h in
              if x < !fminx then fminx := x;
              if x > !fmaxx then fmaxx := x;
              if y < !fminy then fminy := y;
              if y > !fmaxy then fmaxy := y
            end)
          net.Netlist.Net.terminals;
        let corners item minx maxx miny maxy =
          if minx > maxx then []
          else if Float.equal minx maxx && Float.equal miny maxy then
            [ { Window_ilp.p_item = item; p_x = minx; p_y = miny } ]
          else
            [
              { Window_ilp.p_item = item; p_x = minx; p_y = miny };
              { Window_ilp.p_item = item; p_x = maxx; p_y = maxy };
            ]
        in
        let member_pins =
          List.concat
            (List.init k (fun it ->
                 corners (Some it) iminx.(it) imaxx.(it) iminy.(it) imaxy.(it)))
        in
        { Window_ilp.n_weight = net.Netlist.Net.weight;
          n_pins = member_pins @ corners None !fminx !fmaxx !fminy !fmaxy })
      net_ids
  in
  (* envelope pressure commensurate with the cost blend: mean net
     weight, scaled by the run's area-vs-wirelength weight ratio *)
  let mean_w =
    match net_ids with
    | [] -> 1.0
    (* placer-lint: allow N2 net_ids is non-empty in this arm, so its length is >= 1 *)
    | _ -> !weight_sum /. float_of_int (List.length net_ids)
  in
  let obj = Eval.objective eng in
  let ratio =
    if obj.Eval.wl_weight > 0.0 then obj.Eval.area_weight /. obj.Eval.wl_weight
    else 1.0
  in
  {
    Window_ilp.items;
    nets;
    frame_w;
    frame_h;
    area_lambda = Float.max 0.0 (mean_w *. ratio);
  }

(* Rebuild the full permutations around a solved window: the window's
   members keep the position slots they occupy, re-ordered per the ILP
   ranks, and everything else stays put. *)
let apply_orders eng sc (ws : int array) (sol : Window_ilp.solved) =
  let st = Eval.state eng in
  let n = Array.length st.Eval.islands in
  let sp = st.Eval.sp in
  (* placer-lint: allow A1 one closure per solved window (dozens per run, not per move); the permutation buffers themselves are preallocated in the scratch *)
  let rewrite src dst order =
    Array.blit src 0 dst 0 n;
    let r = ref 0 in
    for p = 0 to n - 1 do
      if sc.in_window.(src.(p)) then begin
        dst.(p) <- ws.(order.(!r));
        incr r
      end
    done
  in
  rewrite sp.Seqpair.pos sc.pos_buf sol.Window_ilp.sol_pos;
  rewrite sp.Seqpair.neg sc.neg_buf sol.Window_ilp.sol_neg;
  Eval.set_order eng ~pos:sc.pos_buf ~neg:sc.neg_buf
[@@placer_lint.hot]

(* One full matheuristic run on its own pre-split random streams. *)
let anneal ~(params : params) ~rng ~on_window ~on_lp (c : Netlist.Circuit.t) =
  let streams = Numerics.Rng.split_n rng 2 in
  let rng_sa = streams.(0) and rng_win = streams.(1) in
  let sa = params.sa in
  let st = Eval.make_state rng_sa c in
  let n = Array.length st.Eval.islands in
  let sc = make_scratch c n in
  let n_windows = ref 0 and n_proved = ref 0 and n_wacc = ref 0
  and n_wrej = ref 0 in
  let sched =
    Telemetry.Span.with_ ~name:"gp" (fun () ->
        let per_temp = Sa_placer.capped_plateau ~moves:sa.Sa_placer.moves n in
        Sa_placer.start ~per_temp sa ~rng:rng_sa st)
  in
  let eng = Sa_placer.engine sched in
  let per_cycle = max 1 (sa.Sa_placer.moves / max 1 params.cycles) in
  let window_phase () =
    let k = min params.window n in
    if k >= 2 then
      Telemetry.Span.with_ ~name:"dp" (fun () ->
          (* sliding windows along a sequence-pair order, one island of
             overlap, rotated by a per-cycle phase from the window
             stream; the phase stays below both the stride and the last
             legal start, so every sweep solves at least one window.
             [seq_of] is re-read per window because an accepted solve
             rewrites the permutations in place. *)
          let sweep seq_of =
            let stride = max 1 (k - 1) in
            let offset =
              Numerics.Rng.int rng_win (max 1 (min stride (n - k + 1)))
            in
            let s = ref offset in
            while !s + k <= n do
              (* re-sync the arena (the previous decision may have been
                 a revert, which leaves it stale until the next cost) *)
              let before = Sa_placer.resync sched in
              let seq = seq_of () in
              let ws = Array.init k (fun i -> seq.(!s + i)) in
              mark sc st ws;
              let inst = build_inst eng sc ws in
              let sol =
                Telemetry.Span.with_ ~name:"ilp" (fun () ->
                    Window_ilp.solve ~node_budget:params.node_budget ~on_lp
                      inst)
              in
              incr n_windows;
              (match sol with
              | None -> ()
              | Some sol ->
                  if sol.Window_ilp.sol_proved then incr n_proved;
                  apply_orders eng sc ws sol;
                  let c' = Sa_placer.cost sched in
                  if c' <= before then begin
                    Sa_placer.commit sched c';
                    incr n_wacc;
                    on_window ~accepted:true ~before ~after:c'
                  end
                  else begin
                    Eval.revert eng;
                    incr n_wrej;
                    on_window ~accepted:false ~before ~after:c'
                  end);
              unmark sc st ws;
              s := !s + stride
            done
          in
          (* Gamma+ walks horizontal neighbourhoods; Gamma- walks
             vertical ones. The extra sweep (and its offset draw from
             the window stream) happens only when [walk_neg] is set, so
             default runs replay the exact historical random sequence. *)
          sweep (fun () -> st.Eval.sp.Seqpair.pos);
          if params.walk_neg then sweep (fun () -> st.Eval.sp.Seqpair.neg))
  in
  for _cycle = 1 to max 1 params.cycles do
    Telemetry.Span.with_ ~name:"gp" (fun () ->
        Sa_placer.plateaus sched per_cycle);
    window_phase ()
  done;
  Telemetry.Counter.add windows_counter !n_windows;
  Telemetry.Counter.add win_proved_counter !n_proved;
  Telemetry.Counter.add win_accept_counter !n_wacc;
  Telemetry.Counter.add win_reject_counter !n_wrej;
  Sa_placer.finish sched

let place ?(params = default_params)
    ?(on_window = fun ~accepted:_ ~before:_ ~after:_ -> ())
    ?(on_lp = ignore)
    (c : Netlist.Circuit.t) =
  let runs =
    if params.sa.Sa_placer.restarts <= 1 then
      [|
        anneal ~params
          ~rng:(Numerics.Rng.create params.sa.Sa_placer.seed)
          ~on_window ~on_lp c;
      |]
    else begin
      let master = Numerics.Rng.create params.sa.Sa_placer.seed in
      let rngs = Numerics.Rng.split_n master params.sa.Sa_placer.restarts in
      Pool.map (Pool.default ())
        (fun rng -> anneal ~params ~rng ~on_window ~on_lp c)
        rngs
    end
  in
  Sa_placer.select runs
