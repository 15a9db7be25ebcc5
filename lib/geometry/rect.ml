(* Axis-aligned rectangles. Invariant: x0 <= x1 and y0 <= y1. *)

type t = { x0 : float; y0 : float; x1 : float; y1 : float }

let make ~x0 ~y0 ~x1 ~y1 =
  if x0 > x1 || y0 > y1 then
    invalid_arg
      (Fmt.str "Rect.make: degenerate corners (%g,%g)-(%g,%g)" x0 y0 x1 y1);
  { x0; y0; x1; y1 }

let of_center ~cx ~cy ~w ~h =
  if w < 0.0 || h < 0.0 then invalid_arg "Rect.of_center: negative size";
  { x0 = cx -. (0.5 *. w); y0 = cy -. (0.5 *. h);
    x1 = cx +. (0.5 *. w); y1 = cy +. (0.5 *. h) }

let empty = { x0 = 0.0; y0 = 0.0; x1 = 0.0; y1 = 0.0 }

let width r = r.x1 -. r.x0
let height r = r.y1 -. r.y0
let area r = width r *. height r
let center r = Point.make (0.5 *. (r.x0 +. r.x1)) (0.5 *. (r.y0 +. r.y1))
let lower_left r = Point.make r.x0 r.y0
let upper_right r = Point.make r.x1 r.y1

let contains ?(eps = 0.0) ~outer inner =
  inner.x0 >= outer.x0 -. eps && inner.x1 <= outer.x1 +. eps
  && inner.y0 >= outer.y0 -. eps && inner.y1 <= outer.y1 +. eps

(* Overlap width along one axis; <= 0 means disjoint along that axis. *)
let overlap_1d a0 a1 b0 b1 = Float.min a1 b1 -. Float.max a0 b0

let overlap_x a b = overlap_1d a.x0 a.x1 b.x0 b.x1
let overlap_y a b = overlap_1d a.y0 a.y1 b.y0 b.y1

let intersects ?(eps = 0.0) a b = overlap_x a b > eps && overlap_y a b > eps

let overlap_area a b =
  let dx = overlap_x a b and dy = overlap_y a b in
  if dx > 0.0 && dy > 0.0 then dx *. dy else 0.0

let union a b =
  { x0 = Float.min a.x0 b.x0; y0 = Float.min a.y0 b.y0;
    x1 = Float.max a.x1 b.x1; y1 = Float.max a.y1 b.y1 }

let bounding_box = function
  | [] -> empty
  | r :: rest -> List.fold_left union r rest

let equal ?(eps = 1e-9) a b =
  abs_float (a.x0 -. b.x0) <= eps && abs_float (a.y0 -. b.y0) <= eps
  && abs_float (a.x1 -. b.x1) <= eps && abs_float (a.y1 -. b.y1) <= eps

let pp ppf r = Fmt.pf ppf "[%.4g,%.4g]x[%.4g,%.4g]" r.x0 r.x1 r.y0 r.y1
