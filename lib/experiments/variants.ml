type core_kind = Ibex | Cm0 | Ridecore

type t = {
  id : string;
  figure : string;
  label : string;
  core : core_kind;
  make_env :
    Netlist.Design.t -> cut_nets:Netlist.Design.net array option ->
    Pdat.Environment.t option;
}

let baseline id figure label core =
  { id; figure; label; core; make_env = (fun _ ~cut_nets:_ -> None) }

(* Ibex variants use cutpoint-based constraints (paper section VI). *)
let ibex id figure label ?(rv32e = false) ?(post = fun _ e -> e) subset =
  {
    id;
    figure;
    label;
    core = Ibex;
    make_env =
      (fun d ~cut_nets ->
        match cut_nets with
        | Some nets ->
            Some
              (post d (Pdat.Environment.riscv_cutpoint ~rv32e d ~nets subset))
        | None -> invalid_arg "ibex variant needs cutpoint nets");
  }

let cm0 id label subset =
  {
    id;
    figure = "fig6";
    label;
    core = Cm0;
    make_env =
      (fun d ~cut_nets:_ ->
        Some (Pdat.Environment.arm_port d ~port:"instr_rdata" subset));
  }

let ridecore id label ?(rv32e = false) subset =
  {
    id;
    figure = "fig7";
    label;
    core = Ridecore;
    make_env =
      (fun d ~cut_nets:_ ->
        Some (Pdat.Environment.riscv_port ~rv32e d ~port:"instr_rdata" subset));
  }

(* the Aligned variant additionally pins the data-address low bits *)
let aligned d env =
  Pdat.Environment.constrain_low_bits env
    (Netlist.Design.output_bus d "data_addr")
    ~bits:2

let mibench g = Isa.Workloads.riscv g

let all =
  [
    (* ------------- Figure 5, left panel: ISA families ---------------- *)
    baseline "ibex-full" "fig5-isa" "Ibex Full" Ibex;
    ibex "ibex-isa" "fig5-isa" "Ibex ISA (rv32imcz)" Isa.Subset.rv32imcz;
    ibex "ibex-rv32imc" "fig5-isa" "RV32imc" Isa.Subset.rv32imc;
    ibex "ibex-rv32im" "fig5-isa" "RV32im" Isa.Subset.rv32im;
    ibex "ibex-rv32ic" "fig5-isa" "RV32ic" Isa.Subset.rv32ic;
    ibex "ibex-rv32i" "fig5-isa" "RV32i" Isa.Subset.rv32i;
    ibex "ibex-rv32e" "fig5-isa" "RV32e" ~rv32e:true Isa.Subset.rv32e;
    (* ------------- Figure 5, middle panel: MiBench subsets ----------- *)
    ibex "ibex-mibench-networking" "fig5-mibench" "MiBench Networking"
      (mibench Isa.Workloads.Networking);
    ibex "ibex-mibench-security" "fig5-mibench" "MiBench Security"
      (mibench Isa.Workloads.Security);
    ibex "ibex-mibench-automotive" "fig5-mibench" "MiBench Automotive"
      (mibench Isa.Workloads.Automotive);
    ibex "ibex-mibench-all" "fig5-mibench" "MiBench All" Isa.Workloads.riscv_all;
    (* ------------- Figure 5, right panel: special subsets ------------ *)
    ibex "ibex-reduced-addressing" "fig5-special" "Reduced Addressing"
      Isa.Subset.rv32i_reduced_addressing;
    ibex "ibex-safety-critical" "fig5-special" "Safety Critical"
      Isa.Subset.rv32i_safety_critical;
    ibex "ibex-no-parallelism" "fig5-special" "No Parallelism"
      Isa.Subset.rv32i_no_parallelism;
    ibex "ibex-aligned" "fig5-special" "Aligned" ~post:aligned
      Isa.Subset.rv32i_aligned;
    ibex "ibex-risc16" "fig5-special" "RiSC 16" Isa.Subset.risc16;
    (* ------------- Figure 6: obfuscated Cortex-M0 --------------------- *)
    baseline "cm0-full" "fig6" "CM0 Full" Cm0;
    cm0 "cm0-armv6m" "ARMv6-M" Isa.Subset.armv6m_full;
    cm0 "cm0-mibench-networking" "MiBench Networking"
      (Isa.Workloads.arm Isa.Workloads.Networking);
    cm0 "cm0-mibench-security" "MiBench Security"
      (Isa.Workloads.arm Isa.Workloads.Security);
    cm0 "cm0-mibench-automotive" "MiBench Automotive"
      (Isa.Workloads.arm Isa.Workloads.Automotive);
    cm0 "cm0-mibench-all" "MiBench All" Isa.Workloads.arm_all;
    cm0 "cm0-interesting" "Interesting Subset" Isa.Subset.armv6m_interesting;
    (* ------------- Figure 7: RIDECORE --------------------------------- *)
    baseline "ridecore-full" "fig7" "RIDECORE Full" Ridecore;
    ridecore "ridecore-isa" "RIDECORE ISA (rv32im)" Isa.Subset.rv32im;
    ridecore "ridecore-rv32i" "RV32i" Isa.Subset.rv32i;
    ridecore "ridecore-rv32e" "RV32e" ~rv32e:true Isa.Subset.rv32e;
    ridecore "ridecore-mibench-all" "MiBench All" Isa.Workloads.riscv_all;
  ]

let by_figure f = List.filter (fun v -> v.figure = f) all
let find id = List.find (fun v -> v.id = id) all

let titles =
  [
    ("fig5-isa", "Figure 5: Ibex variants (cutpoint-based PDAT) / fig5-isa");
    ("fig5-mibench",
     "Figure 5: Ibex variants (cutpoint-based PDAT) / fig5-mibench");
    ("fig5-special",
     "Figure 5: Ibex variants (cutpoint-based PDAT) / fig5-special");
    ("fig6", "Figure 6: obfuscated Cortex-M0 (port-based PDAT) / fig6");
    ("fig7", "Figure 7: RIDECORE (port-based PDAT) / fig7");
  ]

let figures = List.map fst titles
let title f = List.assoc f titles
