(* Template-composition placer: the SA schedule over an enlarged move
   set. Moves 0-4 delegate to the engine's sequence-pair/mirror
   proposals; move 5 swaps one island for another member of its Pareto
   template family through {!Eval.replace_island}. With every family a
   singleton the extra move is never drawn and the search degenerates
   to the SA baseline's (on its own random stream). *)

module Island = Annealing.Island
module Eval = Annealing.Eval
module Sa_placer = Annealing.Sa_placer

let swaps_counter = Telemetry.Counter.make "tmpl.swaps"

(* Per-island candidate arrays: entry 0 is the island exactly as
   {!Island.decompose} built it (so restarts start from the historical
   initial configuration), the rest are family members instantiated
   against this circuit's device ids. A stored family's own seed (or
   any member coinciding with ours on (w, h, hpwl)) is dropped rather
   than duplicated. *)
let materialize store c islands =
  Array.map
    (fun isl ->
      let m, slots, seed = Motif.of_island c isl in
      let alts =
        Array.to_list (Template_store.family store m ~seed)
        |> List.filter (fun p -> not (Motif.same_point p seed))
        |> List.map (Motif.instantiate ~slots)
      in
      Array.of_list (isl :: alts))
    islands

(* The pending swap lives in preallocated refs ([swap_b] = -1 for an
   engine move), so recording an accepted swap allocates nothing. *)
let anneal ~(params : Sa_placer.params) ~candidates ~multi ~rng
    (c : Netlist.Circuit.t) =
  Telemetry.Span.with_ ~name:"gp" (fun () ->
      let st = Eval.make_state rng c in
      let n_islands = Array.length st.Eval.islands in
      let choice = Array.make n_islands 0 in
      let swap_b = ref (-1) and swap_k = ref 0 and n_swaps = ref 0 in
      let propose eng rng =
        swap_b := -1;
        if Array.length multi = 0 || Numerics.Rng.int rng 6 <> 5 then
          Eval.propose eng rng
        else begin
          let b = multi.(Numerics.Rng.int rng (Array.length multi)) in
          let len = Array.length candidates.(b) in
          let k0 = Numerics.Rng.int rng (len - 1) in
          let k = if k0 >= choice.(b) then k0 + 1 else k0 in
          Eval.replace_island eng b candidates.(b).(k);
          swap_b := b;
          swap_k := k
        end
      in
      let on_accept () =
        if !swap_b >= 0 then begin
          choice.(!swap_b) <- !swap_k;
          incr n_swaps
        end
      in
      let per_temp =
        Sa_placer.capped_plateau ~moves:params.Sa_placer.moves n_islands
      in
      let s = Sa_placer.start ~propose ~on_accept ~per_temp params ~rng st in
      Sa_placer.plateaus s params.Sa_placer.moves;
      Telemetry.Counter.add swaps_counter !n_swaps;
      Sa_placer.finish s)

let place ?(params = Sa_placer.default_params) ?store (c : Netlist.Circuit.t) =
  let store =
    match store with Some s -> s | None -> Template_store.default ()
  in
  (* decompose + family lookup happen here, on the calling domain; the
     restart tasks below only read [candidates] *)
  let islands = Array.of_list (Island.decompose c) in
  let candidates = materialize store c islands in
  let multi =
    Array.to_list (Array.mapi (fun b cs -> (b, Array.length cs)) candidates)
    |> List.filter_map (fun (b, len) -> if len > 1 then Some b else None)
    |> Array.of_list
  in
  let runs =
    if params.Sa_placer.restarts <= 1 then
      [|
        anneal ~params ~candidates ~multi
          ~rng:(Numerics.Rng.create params.Sa_placer.seed)
          c;
      |]
    else begin
      let master = Numerics.Rng.create params.Sa_placer.seed in
      let rngs = Numerics.Rng.split_n master params.Sa_placer.restarts in
      Pool.map (Pool.default ())
        (fun rng -> anneal ~params ~candidates ~multi ~rng c)
        rngs
    end
  in
  Sa_placer.select runs
