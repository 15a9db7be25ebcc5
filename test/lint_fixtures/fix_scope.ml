(* Harvest-scope fixture: the structure shapes the lint core walks
   besides plain top-level bindings. A local module alias, a nested
   module, a functor, an [include]d structure and a top-level
   [let () =] script each reach the rules through their own path:

   - nested_counter and included are module-level state (D4);
   - both stamps read the wall clock (D1) — the per-expression walk
     covers the functor body, the harvest does not, so only
     Inner.stamp gets an effect summary;
   - per_app is per-application state inside the functor: no D4;
   - the script's task writes the shared table through the alias
     [P.map] (P1). *)

module P = Pool

module Inner = struct
  let nested_counter = ref 0
  let stamp () = Unix.gettimeofday ()
end

module Make (X : sig
  val n : int
end) =
struct
  let per_app = ref X.n
  let stamp () = Sys.time ()
end

include struct
  let included = Array.make 4 0
end

(* placer-lint: allow D4 the shared table is the point of this fixture; only the P1 in the script below may fire *)
let seen : (int, int) Hashtbl.t = Hashtbl.create 8

let () =
  P.with_pool ~jobs:2 (fun p ->
      ignore
        (P.map p
           (fun i ->
             Hashtbl.replace seen i i;
             i)
           (Array.init 4 Fun.id)))
