(* Plain-text circuit and placement interchange format.

   Circuit format (one directive per line, '#' comments):

     circuit <name> <perf_class>
     meta <key> <float>
     device <name> <kind> <w> <h> pins <pname>:<ox>:<oy> ...
     net <name> [weight <w>] [critical] <dev>.<pin> ...
     sym [h] <a>/<b> ... [self <r> ...]
     align <kind> <a> <b>
     order <h|v> <dev> ...

   Devices and constraints reference devices by name. Placement format:

     place <dev> <x> <y> [fx] [fy]

   The parsers are strict: malformed input raises [Parse_error] with a
   line number. *)

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let kind_of_string line = function
  | "nmos" -> Device.Nmos
  | "pmos" -> Device.Pmos
  | "cap" -> Device.Cap
  | "res" -> Device.Res
  | "ind" -> Device.Ind
  | "io" -> Device.Io
  | s ->
      if String.length s > 0 then Device.Other s
      else fail line "empty device kind"

let split_ws s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let float_of line s =
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail line (Fmt.str "expected a number, got %S" s)

(* ---------- writing ---------- *)

let write_circuit ppf (c : Circuit.t) =
  Fmt.pf ppf "circuit %s %s@." c.Circuit.name c.Circuit.perf_class;
  List.iter (fun (k, v) -> Fmt.pf ppf "meta %s %.9g@." k v) c.Circuit.meta;
  Array.iter
    (fun (d : Device.t) ->
      Fmt.pf ppf "device %s %s %.9g %.9g pins" d.Device.name
        (Device.kind_to_string d.Device.kind)
        d.Device.w d.Device.h;
      Array.iter
        (fun (p : Device.pin) ->
          Fmt.pf ppf " %s:%.9g:%.9g" p.Device.pin_name p.Device.ox p.Device.oy)
        d.Device.pins;
      Fmt.pf ppf "@.")
    c.Circuit.devices;
  let dev_name i = (Circuit.device c i).Device.name in
  Array.iter
    (fun (e : Net.t) ->
      Fmt.pf ppf "net %s" e.Net.name;
      if not (Float.equal e.Net.weight 1.0) then
        Fmt.pf ppf " weight %.9g" e.Net.weight;
      if e.Net.critical then Fmt.pf ppf " critical";
      Array.iter
        (fun (t : Net.terminal) ->
          let d = Circuit.device c t.Net.dev in
          Fmt.pf ppf " %s.%s" d.Device.name
            d.Device.pins.(t.Net.pin).Device.pin_name)
        e.Net.terminals;
      Fmt.pf ppf "@.")
    c.Circuit.nets;
  let cs = c.Circuit.constraints in
  List.iter
    (fun (g : Constraint_set.sym_group) ->
      Fmt.pf ppf "sym";
      (match g.Constraint_set.sym_axis with
      | Constraint_set.Horizontal -> Fmt.pf ppf " h"
      | Constraint_set.Vertical -> ());
      List.iter
        (fun (a, b) -> Fmt.pf ppf " %s/%s" (dev_name a) (dev_name b))
        g.Constraint_set.pairs;
      (match g.Constraint_set.selfs with
      | [] -> ()
      | selfs ->
          Fmt.pf ppf " self";
          List.iter (fun r -> Fmt.pf ppf " %s" (dev_name r)) selfs);
      Fmt.pf ppf "@.")
    cs.Constraint_set.sym_groups;
  List.iter
    (fun (a : Constraint_set.align_pair) ->
      Fmt.pf ppf "align %s %s %s@."
        (match a.Constraint_set.align_kind with
        | Constraint_set.Bottom -> "bottom"
        | Constraint_set.Top -> "top"
        | Constraint_set.Vcenter -> "vcenter"
        | Constraint_set.Hcenter -> "hcenter")
        (dev_name a.Constraint_set.a)
        (dev_name a.Constraint_set.b))
    cs.Constraint_set.aligns;
  List.iter
    (fun (o : Constraint_set.order_chain) ->
      Fmt.pf ppf "order %s"
        (match o.Constraint_set.order_dir with
        | Constraint_set.Left_to_right -> "h"
        | Constraint_set.Bottom_to_top -> "v");
      List.iter (fun d -> Fmt.pf ppf " %s" (dev_name d)) o.Constraint_set.chain;
      Fmt.pf ppf "@.")
    cs.Constraint_set.orders

let circuit_to_string c = Fmt.str "%a" write_circuit c

(* The interchange text is the canonical form of a circuit; constraint
   lines (sym/align/order) are split out so motif-equivalent netlists
   with different constraint sets hash apart only in the second. *)
let circuit_hashes c =
  let text = circuit_to_string c in
  let is_constraint l =
    String.starts_with ~prefix:"sym " l
    || String.starts_with ~prefix:"sym/" l
    || String.equal l "sym"
    || String.starts_with ~prefix:"align " l
    || String.starts_with ~prefix:"order " l
  in
  let cs, rest =
    List.partition is_constraint (String.split_on_char '\n' text)
  in
  ( Digest.to_hex (Digest.string (String.concat "\n" rest)),
    Digest.to_hex (Digest.string (String.concat "\n" cs)) )

let write_placement ppf (l : Layout.t) =
  for i = 0 to Layout.n_devices l - 1 do
    let d = Circuit.device l.Layout.circuit i in
    let o = l.Layout.orients.(i) in
    Fmt.pf ppf "place %s %.9g %.9g%s%s@." d.Device.name l.Layout.xs.(i)
      l.Layout.ys.(i)
      (if o.Geometry.Orient.fx then " fx" else "")
      (if o.Geometry.Orient.fy then " fy" else "")
  done

let placement_to_string l = Fmt.str "%a" write_placement l

(* ---------- parsing ---------- *)

type builder_state = {
  mutable b_name : string;
  mutable b_class : string;
  mutable b_meta : (string * float) list;
  mutable b_devices : Device.t list;  (* reversed *)
  mutable b_count : int;
  b_index : (string, int) Hashtbl.t;
  mutable b_nets : Net.t list;  (* reversed *)
  mutable b_syms : Constraint_set.sym_group list;
  mutable b_aligns : Constraint_set.align_pair list;
  mutable b_orders : Constraint_set.order_chain list;
}

let parse_circuit text =
  let st =
    {
      b_name = "unnamed";
      b_class = "generic";
      b_meta = [];
      b_devices = [];
      b_count = 0;
      b_index = Hashtbl.create 32;
      b_nets = [];
      b_syms = [];
      b_aligns = [];
      b_orders = [];
    }
  in
  let dev_id line name =
    match Hashtbl.find_opt st.b_index name with
    | Some i -> i
    | None -> fail line (Fmt.str "unknown device %S" name)
  in
  let pin_id line dev pin_name =
    let d = List.nth st.b_devices (st.b_count - 1 - dev) in
    let rec go i =
      if i >= Array.length d.Device.pins then
        fail line (Fmt.str "device %s has no pin %S" d.Device.name pin_name)
      else if d.Device.pins.(i).Device.pin_name = pin_name then i
      else go (i + 1)
    in
    go 0
  in
  let handle line_no line =
    match split_ws line with
    | [] -> ()
    | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> ()
    | [ "circuit"; name; klass ] ->
        st.b_name <- name;
        st.b_class <- klass
    | [ "meta"; k; v ] -> st.b_meta <- (k, float_of line_no v) :: st.b_meta
    | "device" :: name :: kind :: w :: h :: "pins" :: pins ->
        if Hashtbl.mem st.b_index name then
          fail line_no (Fmt.str "duplicate device %S" name);
        let pins =
          Array.of_list
            (List.map
               (fun spec ->
                 match String.split_on_char ':' spec with
                 | [ pn; ox; oy ] ->
                     { Device.pin_name = pn; ox = float_of line_no ox;
                       oy = float_of line_no oy }
                 | _ -> fail line_no (Fmt.str "bad pin spec %S" spec))
               pins)
        in
        let d =
          Device.make ~id:st.b_count ~name
            ~kind:(kind_of_string line_no kind)
            ~w:(float_of line_no w) ~h:(float_of line_no h) ~pins
        in
        Hashtbl.add st.b_index name st.b_count;
        st.b_devices <- d :: st.b_devices;
        st.b_count <- st.b_count + 1
    | "net" :: name :: rest ->
        let weight = ref 1.0 and critical = ref false in
        let terms = ref [] in
        let rec go = function
          | [] -> ()
          | "weight" :: v :: tl ->
              weight := float_of line_no v;
              go tl
          | "critical" :: tl ->
              critical := true;
              go tl
          | term :: tl ->
              (match String.index_opt term '.' with
              | Some k ->
                  let dn = String.sub term 0 k in
                  let pn =
                    String.sub term (k + 1) (String.length term - k - 1)
                  in
                  let dev = dev_id line_no dn in
                  terms := { Net.dev; pin = pin_id line_no dev pn } :: !terms
              | None -> fail line_no (Fmt.str "bad terminal %S" term));
              go tl
        in
        go rest;
        let id = List.length st.b_nets in
        st.b_nets <-
          Net.make ~weight:!weight ~critical:!critical ~id ~name
            (Array.of_list (List.rev !terms))
          :: st.b_nets
    | "sym" :: rest ->
        let axis, rest =
          match rest with
          | "h" :: tl -> (Constraint_set.Horizontal, tl)
          | tl -> (Constraint_set.Vertical, tl)
        in
        let pairs = ref [] and selfs = ref [] in
        let rec go in_self = function
          | [] -> ()
          | "self" :: tl -> go true tl
          | tok :: tl ->
              (if in_self then selfs := dev_id line_no tok :: !selfs
               else
                 match String.index_opt tok '/' with
                 | Some k ->
                     let a = String.sub tok 0 k in
                     let b =
                       String.sub tok (k + 1) (String.length tok - k - 1)
                     in
                     pairs :=
                       (dev_id line_no a, dev_id line_no b) :: !pairs
                 | None -> fail line_no (Fmt.str "bad sym pair %S" tok));
              go in_self tl
        in
        go false rest;
        st.b_syms <-
          Constraint_set.sym_group ~axis ~selfs:(List.rev !selfs)
            (List.rev !pairs)
          :: st.b_syms
    | [ "align"; kind; a; b ] ->
        let align_kind =
          match kind with
          | "bottom" -> Constraint_set.Bottom
          | "top" -> Constraint_set.Top
          | "vcenter" -> Constraint_set.Vcenter
          | "hcenter" -> Constraint_set.Hcenter
          | k -> fail line_no (Fmt.str "bad align kind %S" k)
        in
        st.b_aligns <-
          { Constraint_set.align_kind; a = dev_id line_no a;
            b = dev_id line_no b }
          :: st.b_aligns
    | "order" :: dir :: devs ->
        let order_dir =
          match dir with
          | "h" -> Constraint_set.Left_to_right
          | "v" -> Constraint_set.Bottom_to_top
          | d -> fail line_no (Fmt.str "bad order direction %S" d)
        in
        st.b_orders <-
          { Constraint_set.order_dir;
            chain = List.map (dev_id line_no) devs }
          :: st.b_orders
    | tok :: _ -> fail line_no (Fmt.str "unknown directive %S" tok)
  in
  List.iteri
    (fun i line -> handle (i + 1) line)
    (String.split_on_char '\n' text);
  let constraints =
    Constraint_set.make ~sym_groups:(List.rev st.b_syms)
      ~aligns:(List.rev st.b_aligns) ~orders:(List.rev st.b_orders) ()
  in
  Circuit.make ~constraints ~perf_class:st.b_class ~meta:(List.rev st.b_meta)
    ~name:st.b_name
    ~devices:(Array.of_list (List.rev st.b_devices))
    ~nets:(Array.of_list (List.rev st.b_nets))
    ()

let parse_placement (c : Circuit.t) text =
  let index = Hashtbl.create 32 in
  Array.iter
    (fun (d : Device.t) -> Hashtbl.add index d.Device.name d.Device.id)
    c.Circuit.devices;
  let l = Layout.create c in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      match split_ws line with
      | [] -> ()
      | tok :: _ when String.length tok > 0 && tok.[0] = '#' -> ()
      | "place" :: name :: x :: y :: flags ->
          let dev =
            match Hashtbl.find_opt index name with
            | Some d -> d
            | None -> fail line_no (Fmt.str "unknown device %S" name)
          in
          Layout.set l dev ~x:(float_of line_no x) ~y:(float_of line_no y);
          Layout.set_orient l dev
            (Geometry.Orient.make ~fx:(List.mem "fx" flags)
               ~fy:(List.mem "fy" flags))
      | tok :: _ -> fail line_no (Fmt.str "unknown directive %S" tok))
    (String.split_on_char '\n' text);
  l
