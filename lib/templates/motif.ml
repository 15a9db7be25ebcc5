(* Motif canonicalization (Badaoui & Vemuri's multi-placement idea,
   arXiv 0710.4717, mapped onto this repo's symmetry islands): an
   island is reduced to its seed-independent identity — sorted device
   dimensions, constraint shape and net-incidence fingerprint, all in
   canonical slot indices — and packed sub-placements are stored
   against the hash of that identity. Anything a legality check or the
   cost function can observe about an island's internals is a function
   of this data, so a packing generated in one netlist instantiates
   soundly wherever the hash matches. *)

module CS = Netlist.Constraint_set
module Island = Annealing.Island

type shape =
  | Sym of { vertical : bool; pairs : (int * int) list; selfs : int list }
  | Row
  | Free

type t = {
  dims : (float * float) array;
  shape : shape;
  aligns : (int * int * int) list;
  chains : (int * int list) list;
  nets : (float * int list) list;
}

type packing = {
  px : float array;
  py : float array;
  por : Geometry.Orient.t array;
  pw : float;
  ph : float;
  p_hpwl : float;
  p_axis : float option;
}

let n_slots m = Array.length m.dims

let align_code = function
  | CS.Bottom -> 0
  | CS.Top -> 1
  | CS.Vcenter -> 2
  | CS.Hcenter -> 3

let dir_code = function CS.Left_to_right -> 0 | CS.Bottom_to_top -> 1

(* (weight, slots) pairs ordered by slot list first so the float only
   breaks ties; Stdlib.compare never touches a float here *)
let compare_net (wa, sa) (wb, sb) =
  let c = Stdlib.compare sa sb in
  if c <> 0 then c else Float.compare wa wb

let internal_hpwl m px py =
  List.fold_left
    (fun acc (w, slots) ->
      match slots with
      | [] | [ _ ] -> acc
      | s0 :: rest ->
          let xmin = ref px.(s0) and xmax = ref px.(s0) in
          let ymin = ref py.(s0) and ymax = ref py.(s0) in
          List.iter
            (fun s ->
              xmin := Float.min !xmin px.(s);
              xmax := Float.max !xmax px.(s);
              ymin := Float.min !ymin py.(s);
              ymax := Float.max !ymax py.(s))
            rest;
          acc +. (w *. (!xmax -. !xmin +. (!ymax -. !ymin))))
    0.0 m.nets

(* [relabel perm a] moves member [i]'s entry to index [perm.(i)]: an
   island's member arrays to slot order, with [perm] the member → slot
   map (its own [devs] for an island built in slot space) *)
let relabel perm a =
  let b = Array.copy a in
  Array.iteri (fun i x -> b.(perm.(i)) <- x) a;
  b

let packing_of m perm (isl : Island.t) =
  let px = relabel perm isl.Island.dx and py = relabel perm isl.Island.dy in
  {
    px;
    py;
    por = relabel perm isl.Island.orient;
    pw = isl.Island.w;
    ph = isl.Island.h;
    p_hpwl = internal_hpwl m px py;
    p_axis = isl.Island.axis_dx;
  }

let of_island (c : Netlist.Circuit.t) (isl : Island.t) =
  let devs = isl.Island.devs in
  let n = Array.length devs in
  let dims_of_pos i =
    let d = Netlist.Circuit.device c devs.(i) in
    (d.Netlist.Device.w, d.Netlist.Device.h)
  in
  (* slots: construction positions ordered by (w, h), construction
     order breaking ties — deterministic and, for distinct dims,
     independent of device numbering *)
  let positions = List.init n Fun.id in
  let cmp i j =
    let wi, hi = dims_of_pos i and wj, hj = dims_of_pos j in
    let cw = Float.compare wi wj in
    if cw <> 0 then cw
    else
      let ch = Float.compare hi hj in
      if ch <> 0 then ch else Stdlib.compare i j
  in
  let sorted = List.sort cmp positions in
  let slot_of_pos = Array.make n 0 in
  List.iteri (fun s pos -> slot_of_pos.(pos) <- s) sorted;
  let slots = relabel slot_of_pos devs in
  let slot_of_dev d =
    let r = ref (-1) in
    Array.iteri (fun s x -> if x = d then r := s) slots;
    !r
  in
  let in_island d = slot_of_dev d >= 0 in
  let dims = relabel slot_of_pos (Array.init n dims_of_pos) in
  let cs = c.Netlist.Circuit.constraints in
  let dev_list = List.sort Stdlib.compare (Array.to_list devs) in
  let shape =
    match
      List.find_opt
        (fun g -> List.sort Stdlib.compare (CS.sym_devices g) = dev_list)
        cs.CS.sym_groups
    with
    | Some g ->
        let pair (a, b) =
          let sa = slot_of_dev a and sb = slot_of_dev b in
          (min sa sb, max sa sb)
        in
        Sym
          {
            vertical = (match g.CS.sym_axis with CS.Vertical -> true
                        | CS.Horizontal -> false);
            pairs = List.sort Stdlib.compare (List.map pair g.CS.pairs);
            selfs = List.sort Stdlib.compare (List.map slot_of_dev g.CS.selfs);
          }
    | None -> if n = 1 then Free else Row
  in
  let aligns =
    List.filter_map
      (fun (p : CS.align_pair) ->
        if in_island p.CS.a && in_island p.CS.b then
          let sa = slot_of_dev p.CS.a and sb = slot_of_dev p.CS.b in
          Some (align_code p.CS.align_kind, min sa sb, max sa sb)
        else None)
      cs.CS.aligns
    |> List.sort Stdlib.compare
  in
  let chains =
    List.filter_map
      (fun (o : CS.order_chain) ->
        let members =
          List.filter_map
            (fun d -> if in_island d then Some (slot_of_dev d) else None)
            o.CS.chain
        in
        if List.length members >= 2 then Some (dir_code o.CS.order_dir, members)
        else None)
      cs.CS.orders
    |> List.sort Stdlib.compare
  in
  let nets = ref [] in
  for ni = 0 to Netlist.Circuit.n_nets c - 1 do
    let net = Netlist.Circuit.net c ni in
    let ss =
      List.filter_map
        (fun d -> if in_island d then Some (slot_of_dev d) else None)
        (Netlist.Net.devices net)
      |> List.sort Stdlib.compare
    in
    if List.length ss >= 2 then nets := (net.Netlist.Net.weight, ss) :: !nets
  done;
  let nets = List.sort compare_net !nets in
  let m = { dims; shape; aligns; chains; nets } in
  (* the island's own coordinates, relabelled to slots, are the seed *)
  (m, slots, packing_of m slot_of_pos isl)

(* {2 Canonical JSON and hashing} *)

let json_of_dims (w, h) = Jsonio.Arr [ Jsonio.Num w; Jsonio.Num h ]

let json_of_shape = function
  | Sym { vertical; pairs; selfs } ->
      Jsonio.Obj
        [
          ("kind", Jsonio.Str "sym");
          ("pairs",
           Jsonio.Arr
             (List.map
                (fun (a, b) ->
                  Jsonio.Arr
                    [ Jsonio.Num (float_of_int a); Jsonio.Num (float_of_int b) ])
                pairs));
          ("selfs",
           Jsonio.Arr (List.map (fun s -> Jsonio.Num (float_of_int s)) selfs));
          ("vertical", Jsonio.Bool vertical);
        ]
  | Row -> Jsonio.Obj [ ("kind", Jsonio.Str "row") ]
  | Free -> Jsonio.Obj [ ("kind", Jsonio.Str "free") ]

let to_json m =
  Jsonio.Obj
    [
      ("aligns",
       Jsonio.Arr
         (List.map
            (fun (k, a, b) ->
              Jsonio.Arr
                [
                  Jsonio.Num (float_of_int k); Jsonio.Num (float_of_int a);
                  Jsonio.Num (float_of_int b);
                ])
            m.aligns));
      ("chains",
       Jsonio.Arr
         (List.map
            (fun (d, ss) ->
              Jsonio.Arr
                [
                  Jsonio.Num (float_of_int d);
                  Jsonio.Arr
                    (List.map (fun s -> Jsonio.Num (float_of_int s)) ss);
                ])
            m.chains));
      ("dims", Jsonio.Arr (List.map json_of_dims (Array.to_list m.dims)));
      ("nets",
       Jsonio.Arr
         (List.map
            (fun (w, ss) ->
              Jsonio.Arr
                [
                  Jsonio.Num w;
                  Jsonio.Arr
                    (List.map (fun s -> Jsonio.Num (float_of_int s)) ss);
                ])
            m.nets));
      ("shape", json_of_shape m.shape);
    ]

let hash m = Digest.to_hex (Digest.string (Jsonio.to_string (Jsonio.sorted (to_json m))))

(* {2 Family generation} *)

let permutable m =
  m.chains = []
  && List.for_all (fun (k, _, _) -> k = align_code CS.Bottom) m.aligns
  && match m.shape with Free -> false | Row | Sym _ -> true

(* all orderings for short lists; for longer rows the identity and its
   reverse only, so enumeration stays bounded without sampling *)
let rec insertions x = function
  | [] -> [ [ x ] ]
  | y :: ys as l -> (x :: l) :: List.map (fun z -> y :: z) (insertions x ys)

let rec permutations = function
  | [] -> [ [] ]
  | x :: xs -> List.concat_map (insertions x) (permutations xs)

let arrangements l =
  if List.length l <= 4 then permutations l else [ l; List.rev l ]

let rec masks k =
  if k = 0 then [ [] ]
  else
    let rest = masks (k - 1) in
    List.map (fun m -> false :: m) rest @ List.map (fun m -> true :: m) rest

let swap_masks k = if k <= 3 then masks k else [ List.init k (fun _ -> false) ]

let same_point a b =
  Float.equal a.pw b.pw && Float.equal a.ph b.ph
  && Float.equal a.p_hpwl b.p_hpwl

let dominates a b =
  a.pw <= b.pw && a.ph <= b.ph && a.p_hpwl <= b.p_hpwl
  && (a.pw < b.pw || a.ph < b.ph || a.p_hpwl < b.p_hpwl)

let compare_point a b =
  let c = Float.compare a.pw b.pw in
  if c <> 0 then c
  else
    let c = Float.compare a.ph b.ph in
    if c <> 0 then c else Float.compare a.p_hpwl b.p_hpwl

let candidates ?(cap = 512) m ~seed =
  if not (permutable m) then [| seed |]
  else
    let acc = ref [] and count = ref 0 in
    let add p =
      if !count < cap then begin
        acc := p :: !acc;
        incr count
      end
    in
    (* variants are packed in slot space: the slots are the members *)
    let dims s = m.dims.(s) in
    let add_island isl = add (packing_of m isl.Island.devs isl) in
    (match m.shape with
    | Free -> ()
    | Row ->
        List.iter
          (fun order -> add_island (Island.pack_row ~dims order))
          (arrangements (List.init (n_slots m) Fun.id))
    | Sym { vertical; pairs; selfs } ->
        let positions =
          match (pairs, selfs) with
          | [], _ | _, [] -> [ Island.Center ]
          | _ -> [ Island.Center; Above; Below ]
        in
        let pair_orders = arrangements pairs in
        let self_orders = arrangements selfs in
        let mask_list = swap_masks (List.length pairs) in
        List.iter
          (fun pos ->
            List.iter
              (fun mask ->
                List.iter
                  (fun porder ->
                    let pairs' =
                      List.map2
                        (fun (a, b) sw -> if sw then (b, a) else (a, b))
                        porder mask
                    in
                    List.iter
                      (fun sorder ->
                        if !count < cap then begin
                          let v =
                            Island.pack_sym ~dims ~selfs_pos:pos
                              ~pairs:pairs' ~selfs:sorder
                          in
                          add_island
                            (if vertical then v else Island.transpose v)
                        end)
                      self_orders)
                  pair_orders)
              mask_list)
          positions);
    let variants = List.rev !acc in
    (* Pareto prune with the seed in the pool, so variants the seed
       dominates die; the seed itself always survives at index 0 *)
    let pool = seed :: variants in
    let survivors =
      List.filter
        (fun p ->
          (not (List.exists (fun q -> dominates q p) pool))
          && not (same_point p seed))
        variants
    in
    (* drop duplicate points among the survivors, keep the first *)
    let deduped =
      List.fold_left
        (fun kept p ->
          if List.exists (fun q -> same_point q p) kept then kept else p :: kept)
        [] survivors
      |> List.rev
    in
    Array.of_list (seed :: List.sort compare_point deduped)

(* slot s holds device slots.(s): the packing's slot arrays are the
   island's member arrays as they stand (islands and published packings
   are both immutable, so sharing is safe) *)
let instantiate ~slots p =
  {
    Island.devs = slots;
    dx = p.px;
    dy = p.py;
    orient = p.por;
    w = p.pw;
    h = p.ph;
    axis_dx = p.p_axis;
  }

(* {2 Packing serialization} *)

let packing_to_json p =
  Jsonio.Obj
    [
      ("axis",
       match p.p_axis with None -> Jsonio.Null | Some a -> Jsonio.Num a);
      ("h", Jsonio.Num p.ph);
      ("hpwl", Jsonio.Num p.p_hpwl);
      ("orients",
       Jsonio.Arr
         (Array.to_list
            (Array.map
               (fun (o : Geometry.Orient.t) ->
                 Jsonio.Arr
                   [ Jsonio.Bool o.Geometry.Orient.fx;
                     Jsonio.Bool o.Geometry.Orient.fy ])
               p.por)));
      ("px", Jsonio.Arr (Array.to_list (Array.map (fun x -> Jsonio.Num x) p.px)));
      ("py", Jsonio.Arr (Array.to_list (Array.map (fun y -> Jsonio.Num y) p.py)));
      ("w", Jsonio.Num p.pw);
    ]

let packing_of_json j =
  let ( let* ) r f = Result.bind r f in
  let field name conv =
    match Option.bind (Jsonio.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "packing: bad or missing field %S" name)
  in
  let floats = function
    | Jsonio.Arr xs ->
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | Jsonio.Num x :: rest -> go (x :: acc) rest
          | _ -> None
        in
        Option.map Array.of_list (go [] xs)
    | _ -> None
  in
  let orients = function
    | Jsonio.Arr xs ->
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | Jsonio.Arr [ Jsonio.Bool fx; Jsonio.Bool fy ] :: rest ->
              go (Geometry.Orient.make ~fx ~fy :: acc) rest
          | _ -> None
        in
        Option.map Array.of_list (go [] xs)
    | _ -> None
  in
  let* px = field "px" floats in
  let* py = field "py" floats in
  let* por = field "orients" orients in
  let* pw = field "w" Jsonio.to_float in
  let* ph = field "h" Jsonio.to_float in
  let* p_hpwl = field "hpwl" Jsonio.to_float in
  let* p_axis =
    match Jsonio.member "axis" j with
    | Some Jsonio.Null -> Ok None
    | Some (Jsonio.Num a) -> Ok (Some a)
    | _ -> Error "packing: bad or missing field \"axis\""
  in
  let n = Array.length px in
  if Array.length py = n && Array.length por = n then
    Ok { px; py; por; pw; ph; p_hpwl; p_axis }
  else Error "packing: coordinate array lengths disagree"
