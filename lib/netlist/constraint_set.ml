type axis = Vertical | Horizontal

type sym_group = {
  sym_axis : axis;
  pairs : (int * int) list;
  selfs : int list;
}

type align_kind = Bottom | Top | Vcenter | Hcenter

type align_pair = { align_kind : align_kind; a : int; b : int }

type order_dir = Left_to_right | Bottom_to_top

type order_chain = { order_dir : order_dir; chain : int list }

type t = {
  sym_groups : sym_group list;
  aligns : align_pair list;
  orders : order_chain list;
}

let empty = { sym_groups = []; aligns = []; orders = [] }

let sym_group ?(selfs = []) ?(axis = Vertical) pairs =
  { sym_axis = axis; pairs; selfs }

let make ?(sym_groups = []) ?(aligns = []) ?(orders = []) () =
  { sym_groups; aligns; orders }

let sym_devices g =
  List.concat_map (fun (a, b) -> [ a; b ]) g.pairs @ g.selfs

(* Devices appearing in some symmetric pair, as (a,b) with a < b. *)
let matched_pairs t =
  List.concat_map
    (fun g -> List.map (fun (a, b) -> (min a b, max a b)) g.pairs)
    t.sym_groups
  |> List.sort_uniq compare

let validate t ~n_devices =
  let check_id ctx i =
    if i < 0 || i >= n_devices then
      Error (Fmt.str "%s: device id %d out of range [0,%d)" ctx i n_devices)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  let rec check_all f = function
    | [] -> Ok ()
    | x :: rest ->
        let* () = f x in
        check_all f rest
  in
  let* () =
    check_all
      (fun g ->
        let* () =
          check_all
            (fun (a, b) ->
              let* () = check_id "sym pair" a in
              let* () = check_id "sym pair" b in
              if a = b then Error (Fmt.str "sym pair (%d,%d) is degenerate" a b)
              else Ok ())
            g.pairs
        in
        check_all (check_id "sym self") g.selfs)
      t.sym_groups
  in
  let* () =
    check_all
      (fun a ->
        let* () = check_id "align" a.a in
        check_id "align" a.b)
      t.aligns
  in
  let* () =
    check_all
      (fun o ->
        if List.length o.chain < 2 then
          Error "order chain must have at least two devices"
        else check_all (check_id "order") o.chain)
      t.orders
  in
  (* A device may belong to at most one symmetry group. *)
  let seen = Hashtbl.create 16 in
  let dup = ref None in
  List.iter
    (fun g ->
      List.iter
        (fun d ->
          if Hashtbl.mem seen d then dup := Some d else Hashtbl.add seen d ())
        (sym_devices g))
    t.sym_groups;
  match !dup with
  | Some d -> Error (Fmt.str "device %d is in multiple symmetry groups" d)
  | None -> Ok ()
