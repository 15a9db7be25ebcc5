(* Tests for the SA substrate: sequence-pair packing, symmetry islands,
   and the end-to-end annealer. *)

module SP = Annealing.Seqpair
module Is = Annealing.Island
module R = Numerics.Rng

let checkf ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let seqpair_tests =
  [
    Alcotest.test_case "identity pair packs in a row" `Quick (fun () ->
        let sp = SP.identity 3 in
        let widths = [| 2.0; 3.0; 1.0 |] and heights = [| 1.0; 1.0; 1.0 |] in
        let xs, ys = SP.pack sp ~widths ~heights in
        checkf "x0" 0.0 xs.(0);
        checkf "x1" 2.0 xs.(1);
        checkf "x2" 5.0 xs.(2);
        Array.iter (fun y -> checkf "y" 0.0 y) ys);
    Alcotest.test_case "reversed pos stacks vertically" `Quick (fun () ->
        (* gamma+ = (2,1,0), gamma- = (0,1,2): i after j in pos, before
           in neg => i above j *)
        let sp = { SP.pos = [| 2; 1; 0 |]; neg = [| 0; 1; 2 |] } in
        let widths = [| 1.0; 1.0; 1.0 |] and heights = [| 2.0; 3.0; 1.0 |] in
        let xs, ys = SP.pack sp ~widths ~heights in
        Array.iter (fun x -> checkf "x" 0.0 x) xs;
        checkf "y0" 0.0 ys.(0);
        checkf "y1" 2.0 ys.(1);
        checkf "y2" 5.0 ys.(2));
    Alcotest.test_case "packing never overlaps (property)" `Quick (fun () ->
        let rng = R.create 77 in
        for _ = 1 to 200 do
          let n = 2 + R.int rng 10 in
          let sp = SP.random rng n in
          let widths = Array.init n (fun _ -> 0.5 +. R.float rng) in
          let heights = Array.init n (fun _ -> 0.5 +. R.float rng) in
          let xs, ys = SP.pack sp ~widths ~heights in
          for i = 0 to n - 1 do
            for j = i + 1 to n - 1 do
              let sep_x =
                xs.(i) +. widths.(i) <= xs.(j) +. 1e-9
                || xs.(j) +. widths.(j) <= xs.(i) +. 1e-9
              in
              let sep_y =
                ys.(i) +. heights.(i) <= ys.(j) +. 1e-9
                || ys.(j) +. heights.(j) <= ys.(i) +. 1e-9
              in
              if not (sep_x || sep_y) then
                Alcotest.failf "blocks %d,%d overlap in a %d-block packing" i
                  j n
            done
          done
        done);
    Alcotest.test_case "moves preserve permutation validity" `Quick (fun () ->
        let rng = R.create 5 in
        let sp = SP.random rng 8 in
        for _ = 1 to 200 do
          (match R.int rng 4 with
          | 0 -> SP.move_swap_pos sp rng
          | 1 -> SP.move_swap_neg sp rng
          | 2 -> SP.move_swap_both sp rng
          | _ -> SP.move_insert sp rng);
          let check_perm p =
            let s = Array.copy p in
            Array.sort compare s;
            Alcotest.(check (array int)) "perm" (Array.init 8 Fun.id) s
          in
          check_perm sp.SP.pos;
          check_perm sp.SP.neg
        done);
  ]

let island_tests =
  [
    Alcotest.test_case "every device in exactly one island" `Quick (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            let islands = Is.decompose c in
            let seen = Array.make (Netlist.Circuit.n_devices c) 0 in
            List.iter
              (fun (isl : Is.t) ->
                Array.iter (fun d -> seen.(d) <- seen.(d) + 1) isl.Is.devs)
              islands;
            Array.iteri
              (fun d k ->
                if k <> 1 then
                  Alcotest.failf "%s: device %d in %d islands" name d k)
              seen)
          Circuits.Testcases.all_names);
    Alcotest.test_case "island devices stay in bounds" `Quick (fun () ->
        let c = Fixtures.diff_stage () in
        List.iter
          (fun (isl : Is.t) ->
            Array.iteri
              (fun i dev ->
                let d = Netlist.Circuit.device c dev in
                let hw = 0.5 *. d.Netlist.Device.w in
                let hh = 0.5 *. d.Netlist.Device.h in
                let dx = isl.Is.dx.(i) and dy = isl.Is.dy.(i) in
                Alcotest.(check bool) "inside" true
                  (dx -. hw >= -1e-9
                  && dx +. hw <= isl.Is.w +. 1e-9
                  && dy -. hh >= -1e-9
                  && dy +. hh <= isl.Is.h +. 1e-9))
              isl.Is.devs)
          (Is.decompose c));
    Alcotest.test_case "sym island is internally symmetric" `Quick (fun () ->
        let c = Fixtures.diff_stage () in
        let cs = c.Netlist.Circuit.constraints in
        let g = List.hd cs.Netlist.Constraint_set.sym_groups in
        let isl = Is.of_sym_group c g in
        match isl.Is.axis_dx with
        | None -> Alcotest.fail "expected a vertical axis"
        | Some axis ->
            List.iter
              (fun (a, b) ->
                let find d =
                  let rec go i = if isl.Is.devs.(i) = d then i else go (i + 1) in
                  go 0
                in
                let pa = find a and pb = find b in
                checkf ~eps:1e-9 "mirrored"
                  (2.0 *. axis)
                  (isl.Is.dx.(pa) +. isl.Is.dx.(pb));
                checkf ~eps:1e-9 "same y" isl.Is.dy.(pa) isl.Is.dy.(pb))
              g.Netlist.Constraint_set.pairs);
    Alcotest.test_case "mirror_x preserves size and symmetry" `Quick
      (fun () ->
        let c = Fixtures.diff_stage () in
        let isl = List.hd (Is.decompose c) in
        let m = Is.mirror_x isl in
        checkf "w" isl.Is.w m.Is.w;
        checkf "h" isl.Is.h m.Is.h;
        Alcotest.(check int) "devices" (Array.length isl.Is.devs)
          (Array.length m.Is.devs));
    (* regression pin for the hash-order fix: align chains must cluster
       transitively and the islands must enumerate sym groups first,
       then free clusters in ascending device order *)
    Alcotest.test_case "decompose groups align chains deterministically"
      `Quick (fun () ->
        let b = Circuits.Builder.create ~name:"AlignFix" ~perf_class:"ota" in
        let d name =
          Circuits.Builder.device b ~name ~kind:Netlist.Device.Nmos ~w:1.0
            ~h:1.0
        in
        let ids = List.init 8 (fun i -> d (Printf.sprintf "m%d" i)) in
        Circuits.Builder.connect b ~net:"n"
          (List.map (fun i -> (i, "g")) ids);
        (match ids with
        | m0 :: m1 :: m2 :: m3 :: m4 :: _ :: m6 :: m7 :: _ ->
            Circuits.Builder.sym_group b [ (m0, m1) ];
            Circuits.Builder.align b m2 m3;
            Circuits.Builder.align b m3 m4;
            Circuits.Builder.align b m6 m7
        | _ -> assert false);
        let c = Circuits.Builder.build b in
        let groups =
          List.map
            (fun (isl : Is.t) -> List.sort compare (Array.to_list isl.Is.devs))
            (Is.decompose c)
        in
        Alcotest.(check (list (list int)))
          "grouping and enumeration order"
          [ [ 0; 1 ]; [ 2; 3; 4 ]; [ 5 ]; [ 6; 7 ] ]
          groups);
    Alcotest.test_case "free islands enumerate in ascending device order"
      `Quick (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            let n_sym =
              List.length
                c.Netlist.Circuit.constraints
                  .Netlist.Constraint_set.sym_groups
            in
            let islands = Is.decompose c in
            let frees = List.filteri (fun i _ -> i >= n_sym) islands in
            let mins =
              List.map
                (fun (isl : Is.t) -> Array.fold_left min max_int isl.Is.devs)
                frees
            in
            let rec ascending = function
              | a :: (b :: _ as tl) -> a < b && ascending tl
              | _ -> true
            in
            if not (ascending mins) then
              Alcotest.failf "%s: free islands out of device order" name)
          Circuits.Testcases.all_names);
  ]

let sa_tests =
  [
    Alcotest.test_case "sa output is legal on every testcase" `Slow (fun () ->
        List.iter
          (fun name ->
            let c = Circuits.Testcases.get_exn name in
            let params =
              { Annealing.Sa_placer.default_params with
                Annealing.Sa_placer.moves = 10_000 }
            in
            let l, _ = Annealing.Sa_placer.place ~params c in
            match Netlist.Checks.all l with
            | [] -> ()
            | viol ->
                Alcotest.failf "%s: %d violations after SA" name
                  (List.length viol))
          Circuits.Testcases.all_names);
    Alcotest.test_case "sa is deterministic per seed" `Quick (fun () ->
        let c = Fixtures.diff_stage () in
        let params =
          { Annealing.Sa_placer.default_params with
            Annealing.Sa_placer.moves = 5_000 }
        in
        let l1, _ = Annealing.Sa_placer.place ~params c in
        let l2, _ = Annealing.Sa_placer.place ~params c in
        Alcotest.(check (float 1e-12)) "same area" (Netlist.Layout.area l1)
          (Netlist.Layout.area l2);
        Alcotest.(check (float 1e-12)) "same hpwl" (Netlist.Layout.hpwl l1)
          (Netlist.Layout.hpwl l2));
    Alcotest.test_case "more moves do not hurt quality much" `Slow (fun () ->
        let c = Circuits.Testcases.get_exn "Comp1" in
        let run moves =
          let params =
            { Annealing.Sa_placer.default_params with
              Annealing.Sa_placer.moves }
          in
          let l, _ = Annealing.Sa_placer.place ~params c in
          Netlist.Layout.area l *. Netlist.Layout.hpwl l
        in
        let short = run 2_000 and long = run 40_000 in
        Alcotest.(check bool) "longer is no worse than 1.3x" true
          (long <= 1.3 *. short));
  ]

let suites =
  [
    ("annealing.seqpair", seqpair_tests);
    ("annealing.island", island_tests);
    ("annealing.sa", sa_tests);
  ]
