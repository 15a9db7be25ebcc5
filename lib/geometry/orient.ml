(* Device orientation: independent horizontal / vertical mirroring.
   Analog devices are not rotated by the placers in this work (widths and
   heights are preserved); only flips are modelled, matching the ILP
   formulation's binary variables f_x, f_y. *)

type t = { fx : bool; fy : bool }

let identity = { fx = false; fy = false }
let flip_x o = { o with fx = not o.fx }
let make ~fx ~fy = { fx; fy }
let equal a b = a.fx = b.fx && a.fy = b.fy

let all = [ identity; { fx = true; fy = false };
            { fx = false; fy = true }; { fx = true; fy = true } ]

(* Pin offset from the device's lower-left corner, after flipping a
   device of size [w] x [h] whose unflipped offset is [(ox, oy)]. *)
let apply_offset o ~w ~h ~ox ~oy =
  let ox' = if o.fx then w -. ox else ox in
  let oy' = if o.fy then h -. oy else oy in
  (ox', oy')

let pp ppf o =
  Fmt.pf ppf "%s" (match (o.fx, o.fy) with
    | false, false -> "N"
    | true, false -> "FX"
    | false, true -> "FY"
    | true, true -> "FXY")
