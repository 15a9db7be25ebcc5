(* The ten benchmark circuits of the paper's evaluation (Sec. IV-C):
   three OTAs, two comparators, two VCOs, an analog adder, a VGA and a
   switched-capacitor filter. The GF12nm netlists are proprietary, so
   these are synthetic equivalents with the same structure: dozens of
   devices, differential symmetry groups, mirror alignment rows and
   monotone signal paths, sized so placed areas land in the paper's
   reported range per circuit (see DESIGN.md, substitution table). *)

module D = Netlist.Device

(* ----- Adder: small opamp + resistive summing network ----- *)

let adder () =
  let b = Builder.create ~name:"Adder" ~perf_class:"adder" in
  let _ =
    Blocks.diff_pair b ~prefix:"dp" ~inp:"vsum" ~inn:"fb" ~outp:"d1"
      ~outn:"d2" ~tail:"tail"
  in
  let _ = Blocks.load_pair b ~prefix:"ld" ~outp:"d1" ~outn:"d2" ~bias:"vbp" in
  let _ = Blocks.tail b ~prefix:"t0" ~drain:"tail" ~bias:"vbn" in
  let mo = Builder.device b ~name:"m_out" ~kind:D.Nmos ~w:1.6 ~h:1.0 in
  Builder.connect b ~net:"d2" [ (mo, "g") ];
  Builder.connect b ~net:"out" ~critical:true [ (mo, "d") ];
  let _ = Blocks.res b ~name:"r_in1" ~a:"in1" ~bnet:"vsum" in
  let _ = Blocks.res b ~name:"r_in2" ~a:"in2" ~bnet:"vsum" in
  let _ = Blocks.res b ~name:"r_in3" ~a:"in3" ~bnet:"vsum" in
  let _ = Blocks.res b ~name:"r_fb" ~a:"out" ~bnet:"fb" in
  let _ = Blocks.cap ~w:1.8 ~h:1.8 b ~name:"c_comp" ~a:"d2" ~bnet:"out" in
  let _ = Blocks.cap ~w:1.8 ~h:1.8 b ~name:"c_load" ~a:"out" ~bnet:"gnd_c" in
  Builder.set_meta b
    [ ("cl_ff", 50.0);
      ("gain_err_pct_nom", 0.6); ("bw_mhz_nom", 160.0); ("offset_mv_nom", 1.2);
      ("spec_gain_err_pct", 0.57); ("spec_bw_mhz", 178.0); ("spec_offset_mv", 1.5) ];
  Builder.build b

(* ----- CC-OTA: cross-coupled load OTA (Table VI's testcase) ----- *)

let cc_ota () =
  let b = Builder.create ~name:"CC-OTA" ~perf_class:"ota" in
  let _ =
    Blocks.diff_pair ~w:1.6 ~h:1.1 b ~prefix:"dp" ~inp:"vin_p" ~inn:"vin_n"
      ~outp:"outp" ~outn:"outn" ~tail:"tail"
  in
  let _ =
    Blocks.load_pair ~w:1.8 ~h:1.1 ~cross:true b ~prefix:"cc" ~outp:"outp"
      ~outn:"outn" ~bias:"unused"
  in
  let _ =
    Blocks.load_pair ~w:1.6 ~h:1.0 b ~prefix:"ml" ~outp:"outp" ~outn:"outn"
      ~bias:"vbp"
  in
  let _ = Blocks.tail ~w:2.2 ~h:1.1 b ~prefix:"t0" ~drain:"tail" ~bias:"vbn" in
  let _, _ =
    Blocks.mirror_row ~w:1.3 ~h:0.9 b ~prefix:"bias" ~bias_in:"vbn"
      ~outs:[ "vbp" ]
  in
  let _ =
    Blocks.cap_pair ~w:2.0 ~h:2.0 b ~prefix:"cl" ~p1:"outp" ~p2:"outn"
      ~common:"vcm"
  in
  Builder.connect b ~critical:true ~net:"outp" [];
  Builder.connect b ~critical:true ~net:"outn" [];
  Builder.set_meta b
    [ ("cl_ff", 6.0);
      ("gain_db_nom", 27.8); ("ugf_mhz_nom", 1450.0); ("bw_mhz_nom", 75.0);
      ("pm_deg_nom", 93.0);
      ("spec_gain_db", 23.0); ("spec_ugf_mhz", 925.0); ("spec_bw_mhz", 53.0);
      ("spec_pm_deg", 76.5) ];
  Builder.build b

(* ----- Comparators ----- *)

let comp_core ?(big = false) b =
  (* preamp *)
  let _ =
    Blocks.diff_pair ~w:1.5 ~h:1.0 b ~prefix:"pre" ~inp:"vin_p" ~inn:"vin_n"
      ~outp:"pa_p" ~outn:"pa_n" ~tail:"tail1"
  in
  let _ =
    Blocks.load_pair ~w:1.5 ~h:1.0 b ~prefix:"prl" ~outp:"pa_p" ~outn:"pa_n"
      ~bias:"vbp"
  in
  let _ = Blocks.tail ~w:2.0 ~h:1.0 b ~prefix:"t1" ~drain:"tail1" ~bias:"vbn" in
  (* regenerative latch *)
  let _ =
    Blocks.load_pair ~w:1.4 ~h:1.0 ~cross:true b ~prefix:"ltp" ~outp:"lat_p"
      ~outn:"lat_n" ~bias:"unused"
  in
  let ln1 = Builder.device b ~name:"lt_n1" ~kind:D.Nmos ~w:1.4 ~h:1.0 in
  let ln2 = Builder.device b ~name:"lt_n2" ~kind:D.Nmos ~w:1.4 ~h:1.0 in
  Builder.connect b ~net:"pa_p" [ (ln1, "g") ];
  Builder.connect b ~net:"pa_n" [ (ln2, "g") ];
  Builder.connect b ~critical:true ~net:"lat_p" [ (ln1, "d") ];
  Builder.connect b ~critical:true ~net:"lat_n" [ (ln2, "d") ];
  Builder.connect b ~net:"clk_tail" [ (ln1, "s"); (ln2, "s") ];
  Builder.sym_group b [ (ln1, ln2) ];
  Builder.align b ln1 ln2;
  let _ = Blocks.switch ~w:1.2 b ~prefix:"clk" ~a:"clk_tail" ~bnet:"gnd_sw" ~clk:"clk" in
  (* reset switches *)
  let _ = Blocks.switch b ~prefix:"rs1" ~a:"lat_p" ~bnet:"vdd_sw" ~clk:"clkb" in
  let _ = Blocks.switch b ~prefix:"rs2" ~a:"lat_n" ~bnet:"vdd_sw" ~clk:"clkb" in
  (* output buffers *)
  let _ = Blocks.inverter b ~prefix:"ob1" ~input:"lat_p" ~output:"out_p" in
  let _ = Blocks.inverter b ~prefix:"ob2" ~input:"lat_n" ~output:"out_n" in
  if big then begin
    (* second preamp stage and input equalisation caps *)
    let _ =
      Blocks.diff_pair ~w:1.6 ~h:1.1 b ~prefix:"pre2" ~inp:"pa_p" ~inn:"pa_n"
        ~outp:"pb_p" ~outn:"pb_n" ~tail:"tail2"
    in
    let _ =
      Blocks.load_pair ~w:1.6 ~h:1.0 b ~prefix:"pl2" ~outp:"pb_p" ~outn:"pb_n"
        ~bias:"vbp"
    in
    let _ =
      Blocks.tail ~w:2.2 ~h:1.0 b ~prefix:"t2" ~drain:"tail2" ~bias:"vbn"
    in
    let _ =
      Blocks.cap_pair ~w:2.4 ~h:2.4 b ~prefix:"ceq" ~p1:"vin_p" ~p2:"vin_n"
        ~common:"vcm"
    in
    let _, _ =
      Blocks.mirror_row ~w:1.2 ~h:0.9 b ~prefix:"bias" ~bias_in:"vbn"
        ~outs:[ "vbp"; "vb2" ]
    in
    ()
  end

let comp1 () =
  let b = Builder.create ~name:"Comp1" ~perf_class:"comparator" in
  comp_core b;
  Builder.set_meta b
    [ ("cl_ff", 12.0);
      ("delay_ns_nom", 0.55); ("offset_mv_nom", 1.8); ("power_uw_nom", 90.0);
      ("spec_delay_ns", 0.67); ("spec_offset_mv", 2.6); ("spec_power_uw", 72.0) ];
  Builder.build b

let comp2 () =
  let b = Builder.create ~name:"Comp2" ~perf_class:"comparator" in
  comp_core ~big:true b;
  Builder.set_meta b
    [ ("cl_ff", 16.0);
      ("delay_ns_nom", 0.42); ("offset_mv_nom", 1.2); ("power_uw_nom", 150.0);
      ("spec_delay_ns", 0.49); ("spec_offset_mv", 3.1); ("spec_power_uw", 118.0) ];
  Builder.build b

(* ----- Current-mirror OTAs ----- *)

let cm_ota1 () =
  let b = Builder.create ~name:"CM-OTA1" ~perf_class:"ota" in
  let _ =
    Blocks.diff_pair ~w:1.6 ~h:1.1 b ~prefix:"dp" ~inp:"vin_p" ~inn:"vin_n"
      ~outp:"d_p" ~outn:"d_n" ~tail:"tail"
  in
  let _ = Blocks.tail ~w:2.4 ~h:1.1 b ~prefix:"t0" ~drain:"tail" ~bias:"vbn" in
  (* pmos mirrors steering the diff currents to the output *)
  let _, _ =
    Blocks.mirror_row ~w:1.5 ~h:1.0 ~kind:D.Pmos b ~prefix:"mp1"
      ~bias_in:"d_p" ~outs:[ "out" ]
  in
  let _, _ =
    Blocks.mirror_row ~w:1.5 ~h:1.0 ~kind:D.Pmos b ~prefix:"mp2"
      ~bias_in:"d_n" ~outs:[ "mid" ]
  in
  let _, _ =
    Blocks.mirror_row ~w:1.4 ~h:1.0 b ~prefix:"mn1" ~bias_in:"mid"
      ~outs:[ "out" ]
  in
  let _, _ =
    Blocks.mirror_row ~w:1.2 ~h:0.9 b ~prefix:"bias" ~bias_in:"vbn"
      ~outs:[ "vb1" ]
  in
  Builder.connect b ~critical:true ~net:"out" [];
  let _ = Blocks.cap ~w:2.6 ~h:2.6 b ~name:"c_load" ~a:"out" ~bnet:"vcm" in
  let _ = Blocks.cap_pair ~w:1.8 ~h:1.8 b ~prefix:"cin" ~p1:"vin_p" ~p2:"vin_n" ~common:"vcm" in
  Builder.set_meta b
    [ ("cl_ff", 25.0);
      ("gain_db_nom", 34.0); ("ugf_mhz_nom", 900.0); ("bw_mhz_nom", 40.0);
      ("pm_deg_nom", 92.0);
      ("spec_gain_db", 35.0); ("spec_ugf_mhz", 967.0); ("spec_bw_mhz", 42.0);
      ("spec_pm_deg", 100.0) ];
  Builder.build b

let cm_ota2 () =
  let b = Builder.create ~name:"CM-OTA2" ~perf_class:"ota" in
  (* stage 1: same topology as CM-OTA1 *)
  let _ =
    Blocks.diff_pair ~w:1.7 ~h:1.1 b ~prefix:"dp" ~inp:"vin_p" ~inn:"vin_n"
      ~outp:"d_p" ~outn:"d_n" ~tail:"tail"
  in
  let _ = Blocks.tail ~w:2.6 ~h:1.1 b ~prefix:"t0" ~drain:"tail" ~bias:"vbn" in
  let _, _ =
    Blocks.mirror_row ~w:1.6 ~h:1.0 ~kind:D.Pmos b ~prefix:"mp1"
      ~bias_in:"d_p" ~outs:[ "s1out" ]
  in
  let _, _ =
    Blocks.mirror_row ~w:1.6 ~h:1.0 ~kind:D.Pmos b ~prefix:"mp2"
      ~bias_in:"d_n" ~outs:[ "mid" ]
  in
  let _, _ =
    Blocks.mirror_row ~w:1.5 ~h:1.0 b ~prefix:"mn1" ~bias_in:"mid"
      ~outs:[ "s1out" ]
  in
  (* stage 2: class-A output *)
  let mo = Builder.device b ~name:"m_out" ~kind:D.Nmos ~w:2.2 ~h:1.2 in
  Builder.connect b ~net:"s1out" [ (mo, "g") ];
  Builder.connect b ~critical:true ~net:"out" [ (mo, "d") ];
  let _, _ =
    Blocks.mirror_row ~w:1.8 ~h:1.1 ~kind:D.Pmos b ~prefix:"mload"
      ~bias_in:"vbp" ~outs:[ "out" ]
  in
  (* Miller compensation and loads *)
  let _ = Blocks.cap ~w:2.4 ~h:2.4 b ~name:"c_mil" ~a:"s1out" ~bnet:"out" in
  let _ = Blocks.res ~w:0.9 ~h:2.0 b ~name:"r_z" ~a:"s1out" ~bnet:"out" in
  let _ = Blocks.cap ~w:2.8 ~h:2.8 b ~name:"c_load" ~a:"out" ~bnet:"vcm" in
  let _, _ =
    Blocks.mirror_row ~w:1.3 ~h:0.9 b ~prefix:"bias" ~bias_in:"vbn"
      ~outs:[ "vbp"; "vb2" ]
  in
  let _ = Blocks.cap_pair ~w:1.9 ~h:1.9 b ~prefix:"cin" ~p1:"vin_p" ~p2:"vin_n" ~common:"vcm" in
  Builder.set_meta b
    [ ("cl_ff", 40.0);
      ("gain_db_nom", 52.0); ("ugf_mhz_nom", 600.0); ("bw_mhz_nom", 8.0);
      ("pm_deg_nom", 80.0);
      ("spec_gain_db", 54.5); ("spec_ugf_mhz", 620.0); ("spec_bw_mhz", 8.0);
      ("spec_pm_deg", 85.5) ];
  Builder.build b

(* ----- Switched-capacitor filter: dominated by the cap array ----- *)

let scf () =
  let b = Builder.create ~name:"SCF" ~perf_class:"scf" in
  (* opamp core *)
  let _ =
    Blocks.diff_pair ~w:2.0 ~h:1.3 b ~prefix:"dp" ~inp:"sum_p" ~inn:"sum_n"
      ~outp:"out_n" ~outn:"out_p" ~tail:"tail"
  in
  let _ =
    Blocks.load_pair ~w:2.2 ~h:1.3 b ~prefix:"ld" ~outp:"out_n" ~outn:"out_p"
      ~bias:"vbp"
  in
  let _ = Blocks.tail ~w:3.0 ~h:1.3 b ~prefix:"t0" ~drain:"tail" ~bias:"vbn" in
  let _, _ =
    Blocks.mirror_row ~w:1.6 ~h:1.1 b ~prefix:"bias" ~bias_in:"vbn"
      ~outs:[ "vbp" ]
  in
  (* the big matched cap array: two integrating pairs + two sampling *)
  let _ =
    Blocks.cap_pair ~w:13.0 ~h:13.0 b ~prefix:"cint1" ~p1:"sum_p" ~p2:"sum_n"
      ~common:"int_c"
  in
  let _ =
    Blocks.cap_pair ~w:13.0 ~h:13.0 b ~prefix:"cint2" ~p1:"out_p" ~p2:"out_n"
      ~common:"int_c2"
  in
  let _ =
    Blocks.cap_pair ~w:9.0 ~h:9.0 b ~prefix:"csmp" ~p1:"smp_p" ~p2:"smp_n"
      ~common:"smp_c"
  in
  (* switch bank: sample and transfer phases, both sides *)
  let _ = Blocks.switch b ~prefix:"s1p" ~a:"in_p" ~bnet:"smp_p" ~clk:"ph1" in
  let _ = Blocks.switch b ~prefix:"s1n" ~a:"in_n" ~bnet:"smp_n" ~clk:"ph1" in
  let _ = Blocks.switch b ~prefix:"s2p" ~a:"smp_p" ~bnet:"sum_p" ~clk:"ph2" in
  let _ = Blocks.switch b ~prefix:"s2n" ~a:"smp_n" ~bnet:"sum_n" ~clk:"ph2" in
  let _ = Blocks.switch b ~prefix:"s3p" ~a:"out_p" ~bnet:"fb_p" ~clk:"ph1" in
  let _ = Blocks.switch b ~prefix:"s3n" ~a:"out_n" ~bnet:"fb_n" ~clk:"ph1" in
  let _ = Blocks.switch b ~prefix:"s4p" ~a:"fb_p" ~bnet:"sum_p" ~clk:"ph2" in
  let _ = Blocks.switch b ~prefix:"s4n" ~a:"fb_n" ~bnet:"sum_n" ~clk:"ph2" in
  (* clock buffers *)
  let _ = Blocks.inverter b ~prefix:"ck1" ~input:"clk" ~output:"ph1" in
  let _ = Blocks.inverter b ~prefix:"ck2" ~input:"ph1" ~output:"ph2" in
  Builder.connect b ~critical:true ~net:"sum_p" [];
  Builder.connect b ~critical:true ~net:"sum_n" [];
  Builder.set_meta b
    [ ("cl_ff", 500.0);
      ("cutoff_err_pct_nom", 0.8); ("thd_db_nom", 68.0); ("settle_ns_nom", 38.0);
      ("spec_cutoff_err_pct", 1.68); ("spec_thd_db", 73.0); ("spec_settle_ns", 32.7) ];
  Builder.build b

(* ----- VGA: two gain stages with resistive loads ----- *)

let vga () =
  let b = Builder.create ~name:"VGA" ~perf_class:"vga" in
  let stage i ~inp ~inn ~outp ~outn =
    let p = Fmt.str "st%d" i in
    let dp, dn =
      Blocks.diff_pair ~w:1.5 ~h:1.0 b ~prefix:p ~inp ~inn ~outp ~outn
        ~tail:(p ^ "_tail")
    in
    let _ = Blocks.res b ~name:(p ^ "_rl1") ~a:outp ~bnet:"vdd_r" in
    let _ = Blocks.res b ~name:(p ^ "_rl2") ~a:outn ~bnet:"vdd_r" in
    let t =
      Blocks.tail ~w:2.0 ~h:1.0 b ~prefix:p ~drain:(p ^ "_tail")
        ~bias:"vgain"
    in
    (dp, dn, t)
  in
  let d1, _, _ = stage 1 ~inp:"vin_p" ~inn:"vin_n" ~outp:"m_p" ~outn:"m_n" in
  let d2, _, _ = stage 2 ~inp:"m_p" ~inn:"m_n" ~outp:"out_p" ~outn:"out_n" in
  (* gain-control current dac: mirror row with two outputs *)
  let dio, outs =
    Blocks.mirror_row ~w:1.3 ~h:0.9 b ~prefix:"gdac" ~bias_in:"vctl"
      ~outs:[ "vgain"; "vb_aux" ]
  in
  (* degeneration resistor pair between the two stages *)
  let _ = Blocks.res b ~name:"r_deg1" ~a:"m_p" ~bnet:"deg" in
  let _ = Blocks.res b ~name:"r_deg2" ~a:"m_n" ~bnet:"deg" in
  let _ =
    Blocks.cap_pair ~w:1.8 ~h:1.8 b ~prefix:"cout" ~p1:"out_p" ~p2:"out_n"
      ~common:"vcm"
  in
  (* monotone left-to-right signal flow: stage1 -> stage2 -> dac *)
  Builder.order b [ d1; d2 ];
  ignore (dio, outs);
  Builder.connect b ~critical:true ~net:"m_p" [];
  Builder.connect b ~critical:true ~net:"m_n" [];
  Builder.set_meta b
    [ ("cl_ff", 18.0);
      ("gain_range_db_nom", 24.0); ("bw_mhz_nom", 320.0); ("noise_nv_nom", 7.0);
      ("spec_gain_range_db", 30.0); ("spec_bw_mhz", 294.0); ("spec_noise_nv", 6.5) ];
  Builder.build b

(* ----- VCOs: ring oscillators with varactor tuning ----- *)

let vco ~name ~stages ~differential ~cell_w ~var_w () =
  let b = Builder.create ~name ~perf_class:"vco" in
  let n = stages in
  let node i = Fmt.str "ph%d" (i mod n) in
  let cells =
    List.init n (fun i ->
        let p = Fmt.str "cell%d" i in
        if differential then begin
          let dp, dn =
            Blocks.diff_pair ~w:cell_w ~h:1.2 b ~prefix:p ~inp:(node i)
              ~inn:(node i ^ "b")
              ~outp:(node (i + 1) ^ "b")
              ~outn:(node (i + 1))
              ~tail:(p ^ "_tail")
          in
          let _ =
            Blocks.load_pair ~w:cell_w ~h:1.2 ~cross:true b ~prefix:p
              ~outp:(node (i + 1))
              ~outn:(node (i + 1) ^ "b")
              ~bias:"unused"
          in
          let t =
            Blocks.tail ~w:(cell_w +. 0.6) ~h:1.2 b ~prefix:p
              ~drain:(p ^ "_tail") ~bias:"vbias"
          in
          ignore (dp, dn);
          t
        end
        else begin
          let p1, _ =
            Blocks.inverter ~wp:cell_w ~wn:(cell_w *. 0.8) ~h:1.4 b ~prefix:p
              ~input:(node i)
              ~output:(node (i + 1))
          in
          p1
        end)
  in
  (* varactor bank: one matched cap per phase pair *)
  let halfn = max 1 (n / 2) in
  for i = 0 to halfn - 1 do
    let _ =
      Blocks.cap_pair ~w:var_w ~h:var_w b
        ~prefix:(Fmt.str "var%d" i)
        ~p1:(node (2 * i))
        ~p2:(node ((2 * i) + 1))
        ~common:"vtune"
    in
    ()
  done;
  let _, _ =
    Blocks.mirror_row ~w:1.4 ~h:1.0 b ~prefix:"bias" ~bias_in:"vbn"
      ~outs:[ "vbias" ]
  in
  let _ = Blocks.inverter ~wp:1.6 ~wn:1.2 ~h:1.2 b ~prefix:"buf" ~input:(node 0) ~output:"vco_out" in
  (* ring phases are the critical nets *)
  for i = 0 to n - 1 do
    Builder.connect b ~critical:true ~net:(node i) []
  done;
  (* delay cells flow left to right *)
  Builder.order b cells;
  b

let vco1 () =
  let b =
    vco ~name:"VCO1" ~stages:5 ~differential:false ~cell_w:2.6 ~var_w:6.0 ()
  in
  Builder.set_meta b
    [ ("cl_ff", 30.0);
      ("freq_ghz_nom", 2.6); ("tune_pct_nom", 16.0); ("pn_dbc_nom", 102.0);
      ("spec_freq_ghz", 2.04); ("spec_tune_pct", 11.1); ("spec_pn_dbc", 123.0) ];
  Builder.build b

let vco2 () =
  let b =
    vco ~name:"VCO2" ~stages:4 ~differential:true ~cell_w:2.0 ~var_w:7.0 ()
  in
  Builder.set_meta b
    [ ("cl_ff", 45.0);
      ("freq_ghz_nom", 4.2); ("tune_pct_nom", 22.0); ("pn_dbc_nom", 108.0);
      ("spec_freq_ghz", 3.9); ("spec_tune_pct", 17.1); ("spec_pn_dbc", 127.0) ];
  Builder.build b

(* ----- Parametric hierarchical testcase for the template study -----

   A chain of identical ~12-device OTA cells. Every cell instantiates
   the same five motifs, so a template store warmed on one cell serves
   all of them; the mirrored PMOS load reuses CC-OTA's "ml" block
   verbatim (same dims, same constraint shape, same net fingerprint),
   which is what the daemon's cross-netlist template-tier test keys on.
   The grouped input pair (pair + self tail, no align/order pin) and
   the cascode quad (two pairs on one axis) are deliberately left
   unpinned so their Pareto families keep several row arrangements. *)

let scaled ~devices =
  let cells = max 1 ((devices + 11) / 12) in
  let b =
    Builder.create ~name:(Fmt.str "Scaled-%d" devices) ~perf_class:"ota"
  in
  let mid i suffix = Fmt.str "mid%d_%s" i suffix in
  let heads = ref [] in
  for i = 0 to cells - 1 do
    let s = Fmt.str "c%d" i in
    let inp = if i = 0 then "vin_p" else mid i "p" in
    let inn = if i = 0 then "vin_n" else mid i "n" in
    let outp = mid (i + 1) "p" and outn = mid (i + 1) "n" in
    let d1 = s ^ "_d1" and d2 = s ^ "_d2" in
    (* input pair fused with its tail into one symmetry group: the
       tail (a self) can sit beside or above the pair, giving the
       motif a genuine area/aspect trade-off *)
    let mp = Builder.device b ~name:(s ^ "_dp_p") ~kind:D.Nmos ~w:1.6 ~h:1.1 in
    let mn = Builder.device b ~name:(s ^ "_dp_n") ~kind:D.Nmos ~w:1.6 ~h:1.1 in
    let mt = Builder.device b ~name:(s ^ "_dp_t") ~kind:D.Nmos ~w:2.2 ~h:1.1 in
    Builder.connect b ~net:inp [ (mp, "g") ];
    Builder.connect b ~net:inn [ (mn, "g") ];
    Builder.connect b ~net:d1 [ (mp, "d") ];
    Builder.connect b ~net:d2 [ (mn, "d") ];
    Builder.connect b ~net:(s ^ "_tail") [ (mp, "s"); (mn, "s"); (mt, "d") ];
    Builder.connect b ~net:"vbn" [ (mt, "g") ];
    Builder.sym_group ~selfs:[ mt ] b [ (mp, mn) ];
    (* cascode quad: two pairs share one axis, row order free *)
    let ca = Builder.device b ~name:(s ^ "_cas_p") ~kind:D.Nmos ~w:1.4 ~h:1.0 in
    let cb = Builder.device b ~name:(s ^ "_cas_n") ~kind:D.Nmos ~w:1.4 ~h:1.0 in
    let ea = Builder.device b ~name:(s ^ "_out_p") ~kind:D.Pmos ~w:1.2 ~h:1.0 in
    let eb = Builder.device b ~name:(s ^ "_out_n") ~kind:D.Pmos ~w:1.2 ~h:1.0 in
    Builder.connect b ~net:d1 [ (ca, "s") ];
    Builder.connect b ~net:d2 [ (cb, "s") ];
    Builder.connect b ~net:"vcas" [ (ca, "g"); (cb, "g") ];
    Builder.connect b ~net:outp [ (ca, "d"); (ea, "d") ];
    Builder.connect b ~net:outn [ (cb, "d"); (eb, "d") ];
    Builder.connect b ~net:"vcasp" [ (ea, "g"); (eb, "g") ];
    Builder.connect b ~net:"vdd_c" [ (ea, "s"); (eb, "s") ];
    Builder.sym_group b [ (ca, cb); (ea, eb) ];
    (* mirrored PMOS load — CC-OTA's "ml" block, shared motif *)
    let _ =
      Blocks.load_pair ~w:1.6 ~h:1.0 b ~prefix:(s ^ "_ml") ~outp ~outn
        ~bias:"vbp"
    in
    (* output buffer and reset switch *)
    let _ =
      Blocks.inverter b ~prefix:(s ^ "_ob") ~input:outp ~output:(s ^ "_buf")
    in
    let _ =
      Blocks.switch b ~prefix:(s ^ "_rs") ~a:outp ~bnet:"vdd_sw" ~clk:"clkb"
    in
    heads := mp :: !heads
  done;
  Builder.connect b ~critical:true ~net:(mid cells "p") [];
  Builder.connect b ~critical:true ~net:(mid cells "n") [];
  (* cells flow left to right; one device per island, so the chain
     orders islands without pinning any motif *)
  if cells > 1 then Builder.order b (List.rev !heads);
  Builder.set_meta b
    [ ("cl_ff", 12.0);
      ("gain_db_nom", 31.0); ("ugf_mhz_nom", 980.0); ("bw_mhz_nom", 60.0);
      ("pm_deg_nom", 88.0);
      ("spec_gain_db", 25.0); ("spec_ugf_mhz", 640.0); ("spec_bw_mhz", 42.0);
      ("spec_pm_deg", 72.0) ];
  Builder.build b

(* ----- registry ----- *)

let all_names =
  [ "Adder"; "CC-OTA"; "Comp1"; "Comp2"; "CM-OTA1"; "CM-OTA2"; "SCF";
    "VGA"; "VCO1"; "VCO2" ]

(* "Scaled-<n>": the parametric hierarchical testcase *)
let scaled_size name =
  let pre = "Scaled-" in
  let pl = String.length pre in
  if String.length name > pl && String.equal (String.sub name 0 pl) pre then
    match int_of_string_opt (String.sub name pl (String.length name - pl)) with
    | Some n when n > 0 -> Some n
    | Some _ | None -> None
  else None

let max_scaled_devices = 1_000

let get = function
  | "Adder" -> Some (adder ())
  | "CC-OTA" -> Some (cc_ota ())
  | "Comp1" -> Some (comp1 ())
  | "Comp2" -> Some (comp2 ())
  | "CM-OTA1" -> Some (cm_ota1 ())
  | "CM-OTA2" -> Some (cm_ota2 ())
  | "SCF" -> Some (scf ())
  | "VGA" -> Some (vga ())
  | "VCO1" -> Some (vco1 ())
  | "VCO2" -> Some (vco2 ())
  | name -> Option.map (fun n -> scaled ~devices:n) (scaled_size name)

let get_exn name =
  match get name with
  | Some c -> c
  | None -> invalid_arg (Fmt.str "Testcases.get: unknown circuit %s" name)

let all () = List.map get_exn all_names
