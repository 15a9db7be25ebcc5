(* Minimal fixed-width table rendering for the experiment reports. *)

type t = { header : string list; rows : string list list }

let render ppf { header; rows } =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width j =
    List.fold_left
      (fun m r -> match List.nth_opt r j with
        | Some s -> max m (String.length s)
        | None -> m)
      0 all
  in
  let widths = List.init ncols width in
  let line r =
    String.concat "  "
      (List.mapi
         (fun j s ->
           let w = List.nth widths j in
           s ^ String.make (max 0 (w - String.length s)) ' ')
         (r @ List.init (max 0 (ncols - List.length r)) (fun _ -> "")))
  in
  Fmt.pf ppf "%s@." (line header);
  Fmt.pf ppf "%s@." (String.make (String.length (line header)) '-');
  List.iter (fun r -> Fmt.pf ppf "%s@." (line r)) rows

let f1 v = Fmt.str "%.1f" v
let f2 v = Fmt.str "%.2f" v
let f3 v = Fmt.str "%.3f" v

(* Geometric-mean ratios of each method's column against a reference
   column, matching the paper's "Avg. (X)" rows. Pairs with a failed
   (nan or non-positive) side are left out of the mean. *)
let geo_mean_ratio pairs =
  let s, n =
    List.fold_left
      (fun (s, n) (v, ref_v) ->
        if ref_v > 0.0 && v > 0.0 then (s +. log (v /. ref_v), n + 1)
        else (s, n))
      (0.0, 0) pairs
  in
  if n = 0 then 1.0 else exp (s /. float_of_int n)
