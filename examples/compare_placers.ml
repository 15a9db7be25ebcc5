(* Compare the three placement paradigms of the paper on one circuit:
   simulated annealing, the prior analytical work [11], and ePlace-A.

     dune exec examples/compare_placers.exe            # default VGA
     dune exec examples/compare_placers.exe -- Comp2
*)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "VGA" in
  let circuit = Circuits.Testcases.get_exn name in
  Fmt.pr "comparing placers on %a@.@." Netlist.Circuit.pp circuit;
  let module M = Experiments.Methods in
  let methods =
    List.map M.of_spec
      [ { (M.default_spec M.Sa) with M.moves = 150_000 };
        M.default_spec M.Prev;
        M.default_spec M.Eplace ]
  in
  let rows =
    List.filter_map
      (fun (m : Experiments.Methods.t) ->
        match m.Experiments.Methods.run circuit with
        | Some o ->
            let l = o.Experiments.Methods.layout in
            Some
              [ m.Experiments.Methods.method_name;
                Fmt.str "%.1f" (Netlist.Layout.area l);
                Fmt.str "%.1f" (Netlist.Layout.hpwl l);
                Fmt.str "%.3f" (Perfsim.Fom.fom l);
                Fmt.str "%.2f" o.Experiments.Methods.runtime_s;
                (if Netlist.Checks.is_legal l then "yes" else "NO") ]
        | None -> None)
      methods
  in
  Experiments.Table_fmt.render Fmt.stdout
    {
      Experiments.Table_fmt.header =
        [ "method"; "area(um2)"; "hpwl(um)"; "FOM"; "runtime(s)"; "legal" ];
      rows;
    }
