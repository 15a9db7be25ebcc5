(* Device <-> net incidence, computed once per circuit and shared by
   every consumer that walks the hypergraph (incremental SA cost, ILP
   flip selection, smoothed-wirelength views). *)

type t = {
  circuit : Circuit.t;
  dev_nets : int array array;  (* device id -> incident net ids, ascending *)
  active_ids : int array;  (* nets with weight > 0 and degree >= 2 *)
}

let is_active (e : Net.t) = e.Net.weight > 0.0 && Net.degree e >= 2

let of_circuit (c : Circuit.t) =
  let n = Circuit.n_devices c in
  let dev_lists = Array.make n [] in
  Array.iter
    (fun (e : Net.t) ->
      List.iter (fun d -> dev_lists.(d) <- e.Net.id :: dev_lists.(d))
        (Net.devices e))
    c.Circuit.nets;
  let dev_nets =
    Array.map (fun ids -> Array.of_list (List.rev ids)) dev_lists
  in
  let active_ids =
    Array.to_list c.Circuit.nets
    |> List.filter_map (fun (e : Net.t) ->
           if is_active e then Some e.Net.id else None)
    |> Array.of_list
  in
  { circuit = c; dev_nets; active_ids }

let circuit t = t.circuit
let n_devices t = Array.length t.dev_nets
let n_nets t = Circuit.n_nets t.circuit
let nets_of_device t d = t.dev_nets.(d)
let degree t e = Net.degree (Circuit.net t.circuit e)
let active t e = is_active (Circuit.net t.circuit e)
let active_nets t = t.active_ids
