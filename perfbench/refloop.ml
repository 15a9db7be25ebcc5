(* The host-speed reference: a fixed, allocation-heavy loop in a process
   of its own. The benchmark asks for one burst after every timed pass
   and scales that pass's times by the burst's time (see [Reference] in
   bench.ml). It links nothing of the placer, so no change to the
   program (its GC settings, its domains) can change what it measures.

   Protocol: every line read from stdin starts one burst; the reply is
   the burst's wall time in seconds on one line. Exits at end of input. *)

(* Boxed floats in short lists over a 200k-slot table: tens of MB of
   live heap, minor and major collections, pointer chasing. On the
   development host this tracked the placers' slow and fast stretches
   where a fixed ALU loop and a random-access loop over a flat array did
   not (see NOTES.md). *)
let burst () =
  let tbl = Array.make 200_000 [] in
  let acc = ref 0.0 in
  for r = 0 to 9 do
    for i = 0 to Array.length tbl - 1 do
      tbl.(i) <-
        float_of_int (i + r)
        :: (match tbl.(i) with _ :: t when List.length t > 3 -> [] | l -> l)
    done;
    Array.iter (fun l -> List.iter (fun x -> acc := !acc +. x) l) tbl
  done;
  !acc

let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let () =
  try
    while true do
      ignore (input_line stdin);
      let t0 = now_s () in
      ignore (Sys.opaque_identity (burst ()));
      Printf.printf "%.9f\n%!" (now_s () -. t0)
    done
  with End_of_file -> ()
