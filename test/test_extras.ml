(* Tests for the auxiliary analysis and tooling modules: the ternary
   reachability engine, the SAT miter equivalence checker, the RV32
   disassembler and the VCD tracer. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- ternary ----------------------------------------------------------- *)

(* lint's ternary reachability, every primary input free; a test ties
   an input to a rail to pin it *)
let constants d = Engine.Absint.constants (Engine.Absint.run d)

let test_ternary_basics () =
  (* en stuck at 0 freezes an enabled register and its fanout *)
  let d = D.create "t" in
  let en = D.add_input d "en" in
  let data = D.add_input d "data" in
  let q = D.new_net d in
  let next = D.add_cell d C.Mux2 [| en; q; data |] in
  D.add_cell_out d ~init:false C.Dff [| next |] ~out:q;
  let y = D.add_cell d C.Or2 [| q; q |] in
  D.add_output d "y" y;
  let d = D.substitute d (fun n -> if n = en then D.net_false else n) in
  let consts = constants d in
  let has n b = List.mem (Engine.Candidate.Const (n, b)) consts in
  check "q proved 0" true (has q false);
  check "y proved 0" true (has y false);
  check "next proved 0" true (has next false)

let test_ternary_free_input_is_x () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let q = D.add_dff d ~d:a () in
  D.add_output d "q" q;
  let consts = constants d in
  check "free-fed flop is unknown" false
    (List.exists
       (function Engine.Candidate.Const (n, _) -> n = q | _ -> false)
       consts)

let test_ternary_converges_on_toggle () =
  (* a toggling flop must come out X, via the join *)
  let d = D.create "t" in
  let q = D.new_net d in
  let nq = D.add_cell d C.Inv [| q |] in
  D.add_cell_out d ~init:false C.Dff [| nq |] ~out:q;
  D.add_output d "q" q;
  let consts = constants d in
  check "toggler not constant" false
    (List.exists
       (function Engine.Candidate.Const (n, _) -> n = q | _ -> false)
       consts)

let test_ternary_sound_vs_induction () =
  (* everything ternary proves, induction must also prove *)
  let d = Netlist.Generate.random ~seed:77 () in
  let consts = constants d in
  let proved, _ = Engine.Induction.prove ~assume:D.net_true d consts in
  check_int "induction confirms all ternary facts" (List.length consts)
    (List.length proved)

let test_ternary_subset_classification () =
  let t = Cores.Ibex_like.build () in
  let d = t.Cores.Ibex_like.design in
  (* rv32i is all 32-bit encodings: bits 0 and 1 of every instruction
     word are 1, so tie them to the 1 rail; every other input is free *)
  let nets = D.input_bus d "instr_rdata" in
  let tied =
    D.substitute d (fun n -> if n = nets.(0) || n = nets.(1) then D.net_true else n)
  in
  (* the ternary screen proves some real constants on the core, and
     the stuck bits add some of them *)
  let consts = constants tied in
  check "finds constants on ibex" true (List.length consts > 0);
  let free = constants d in
  check "stuck inputs add constants" true
    (List.length consts > List.length free)

(* --- equivalence checker ------------------------------------------------ *)

let test_equiv_identical () =
  let d = Netlist.Generate.random ~seed:5 () in
  let d' = D.copy d in
  check "identical designs equivalent" true
    (Engine.Equiv.bounded ~frames:6 d d' = Engine.Equiv.Equivalent)

let test_equiv_optimized () =
  let d = Netlist.Generate.random ~seed:8 () in
  let d', _ = Synthkit.Optimize.run d in
  check "optimize preserves (formally, 8 frames)" true
    (Engine.Equiv.bounded ~frames:8 d d' = Engine.Equiv.Equivalent)

let test_equiv_detects_difference () =
  let d = D.create "a" in
  let x = D.add_input d "x" in
  D.add_output d "y" (D.add_cell d C.Inv [| x |]);
  let d2 = D.create "b" in
  let x2 = D.add_input d2 "x" in
  D.add_output d2 "y" (D.add_cell d2 C.Buf [| x2 |]);
  (match Engine.Equiv.bounded ~frames:3 d d2 with
  | Engine.Equiv.Counterexample { output; _ } -> check_str "output" "y" output
  | Engine.Equiv.Equivalent | Engine.Equiv.Unknown ->
      Alcotest.fail "inverter vs buffer must differ")

let test_equiv_under_assumption () =
  (* y1 = a & b vs y2 = a: differ in general, equal when b is assumed 1 *)
  let d1 = D.create "a" in
  let a1 = D.add_input d1 "a" in
  let b1 = D.add_input d1 "b" in
  D.add_output d1 "y" (D.add_cell d1 C.And2 [| a1; b1 |]);
  let d2 = D.create "b" in
  let a2 = D.add_input d2 "a" in
  let _b2 = D.add_input d2 "b" in
  D.add_output d2 "y" (D.add_cell d2 C.Buf [| a2 |]);
  check "differ unconstrained" true
    (match Engine.Equiv.bounded ~frames:2 d1 d2 with
    | Engine.Equiv.Counterexample _ -> true
    | Engine.Equiv.Equivalent | Engine.Equiv.Unknown -> false);
  check "equal under b=1" true
    (Engine.Equiv.bounded ~assume:b1 ~frames:2 d1 d2 = Engine.Equiv.Equivalent)

(* the flagship check: formal equivalence of a PDAT reduction under its
   environment, on the Ibex-class core *)
let test_equiv_pdat_reduction () =
  let t = Cores.Ibex_like.build () in
  let d = t.Cores.Ibex_like.design in
  let env = Pdat.Environment.riscv_port d ~port:"instr_rdata" Isa.Subset.rv32i in
  let result =
    Pdat.Pipeline.run
      ~rsim:{ Engine.Rsim.default with Engine.Rsim.cycles = 384; runs = 2 }
      ~design:d ~env ()
  in
  match
    Engine.Equiv.bounded ~assume:env.Pdat.Environment.assume
      ~conflict_budget:3_000_000 ~frames:3 env.Pdat.Environment.model
      result.Pdat.Pipeline.reduced
  with
  | Engine.Equiv.Equivalent -> ()
  | Engine.Equiv.Unknown -> Alcotest.fail "equivalence check ran out of budget"
  | Engine.Equiv.Counterexample { frame; output } ->
      Alcotest.failf "reduced Ibex differs at frame %d on %s" frame output

(* --- vcd ------------------------------------------------------------------ *)

let test_vcd () =
  let d = D.create "t" in
  let q = D.new_net d in
  let nq = D.add_cell d C.Inv [| q |] in
  D.add_cell_out d ~init:false C.Dff [| nq |] ~out:q;
  D.add_output d "q" q;
  let sim = Netlist.Sim64.create d in
  let path = Filename.temp_file "pdat" ".vcd" in
  let vcd = Netlist.Vcd.create sim ~path ~nets:[ ("q", [| q |]); ("nq", [| nq |]) ] in
  for _ = 1 to 4 do
    Netlist.Sim64.eval sim;
    Netlist.Vcd.sample vcd;
    Netlist.Sim64.step sim
  done;
  Netlist.Vcd.close vcd;
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check "has header" true
    (String.length content > 0
     && String.sub content 0 5 = "$date");
  check "has var declarations" true
    (let re = "$var wire 1" in
     let rec contains i =
       i + String.length re <= String.length content
       && (String.sub content i (String.length re) = re || contains (i + 1))
     in
     contains 0);
  check "has timesteps" true
    (let rec count i acc =
       if i >= String.length content then acc
       else count (i + 1) (if content.[i] = '#' then acc + 1 else acc)
     in
     count 0 0 = 4)

let () =
  Alcotest.run "extras"
    [
      ( "ternary",
        [
          Alcotest.test_case "basics" `Quick test_ternary_basics;
          Alcotest.test_case "free input" `Quick test_ternary_free_input_is_x;
          Alcotest.test_case "toggler" `Quick test_ternary_converges_on_toggle;
          Alcotest.test_case "sound vs induction" `Quick test_ternary_sound_vs_induction;
          Alcotest.test_case "ibex classification" `Quick
            test_ternary_subset_classification;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "identical" `Quick test_equiv_identical;
          Alcotest.test_case "optimize" `Quick test_equiv_optimized;
          Alcotest.test_case "detects difference" `Quick test_equiv_detects_difference;
          Alcotest.test_case "under assumption" `Quick test_equiv_under_assumption;
          Alcotest.test_case "pdat reduction (formal)" `Slow test_equiv_pdat_reduction;
        ] );
      ("vcd", [ Alcotest.test_case "trace file" `Quick test_vcd ]);
    ]
