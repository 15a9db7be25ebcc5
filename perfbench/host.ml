(* What a result was measured on: host facts and an identity for the
   code, so two results can be shown to share inputs and program. *)

(* VmHWM (peak resident set) from a /proc status file, in MB. *)
let vm_hwm_mb path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let self_peak_rss_mb () = vm_hwm_mb "/proc/self/status"

let nproc () =
  let ic = Unix.open_process_args_in "nproc" [| "nproc" |] in
  let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
  ignore (Unix.close_process_in ic);
  n

(* The git commit when the checkout is a repository, else "none". *)
let commit () =
  if not (Sys.file_exists ".git") then "none"
  else
    let ic = Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] in
    let c = try String.trim (input_line ic) with End_of_file -> "none" in
    ignore (Unix.close_process_in ic);
    c

(* Digest of every source file under [dirs], in sorted path order: the
   code's identity when there is no commit to name. *)
let source_digest dirs =
  let rec walk acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc f -> walk acc (Filename.concat path f))
        acc (Sys.readdir path)
    else if Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
            || Filename.basename path = "dune"
    then path :: acc
    else acc
  in
  let files = List.sort compare (List.fold_left walk [] dirs) in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (List.map (fun f -> f ^ Digest.to_hex (Digest.file f)) files)))
