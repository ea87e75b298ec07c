(* Tests for the PDAT core library: rewiring semantics, environment
   monitors, the full pipeline on a small design, and the end-to-end
   guarantee on the Ibex-class core: a program from the reduced ISA
   executes identically on the original and the PDAT-reduced netlist. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- rewiring ---------------------------------------------------------- *)

let sim_output d inputs_v =
  let sim = Netlist.Sim64.create d in
  List.iter (fun (nm, v) -> Netlist.Sim64.set_input_name sim nm v) inputs_v;
  Netlist.Sim64.eval sim;
  List.map (fun (nm, n) -> (nm, Netlist.Sim64.read sim n)) (D.outputs d)

let test_rewire_const () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.And2 [| a; a |] in
  D.add_output d "x" x;
  (* pretend we proved x == 0: the output must follow the rail *)
  let d' = Pdat.Rewire.apply d [ Engine.Candidate.Const (x, false) ] in
  check "x tied low" true
    (sim_output d' [ ("a", -1L) ] = [ ("x", 0L) ])

let test_rewire_implies_and () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.And2 [| a; b |] in
  D.add_output d "x" x;
  let cell = Option.get (D.driver d x) in
  (* a -> b proved: output = a *)
  let d' = Pdat.Rewire.apply d [ Engine.Candidate.Implies { cell; a; b } ] in
  check "follows a" true
    (sim_output d' [ ("a", -1L); ("b", 0L) ] = [ ("x", -1L) ])

let test_rewire_implies_or () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.Or2 [| a; b |] in
  D.add_output d "x" x;
  let cell = Option.get (D.driver d x) in
  (* a -> b proved: a | b = b *)
  let d' = Pdat.Rewire.apply d [ Engine.Candidate.Implies { cell; a; b } ] in
  check "follows b" true
    (sim_output d' [ ("a", -1L); ("b", 0L) ] = [ ("x", 0L) ])

let test_rewire_implies_nand_nor () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.Nand2 [| a; b |] in
  let y = D.add_cell d C.Nor2 [| a; b |] in
  D.add_output d "x" x;
  D.add_output d "y" y;
  let cx = Option.get (D.driver d x) in
  let cy = Option.get (D.driver d y) in
  let d' =
    Pdat.Rewire.apply d
      [ Engine.Candidate.Implies { cell = cx; a; b };
        Engine.Candidate.Implies { cell = cy; a; b } ]
  in
  (* nand: !a ; nor: !b *)
  check "nand is !a, nor is !b" true
    (sim_output d' [ ("a", 0L); ("b", -1L) ] = [ ("x", -1L); ("y", 0L) ])

let test_rewire_empty_is_identity () =
  (* no proved properties: rewiring must be a semantic no-op, and the
     resynthesized result must match the baseline exactly *)
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.And2 [| a; b |] in
  let q = D.add_dff d ~d:x () in
  D.add_output d "x" x;
  D.add_output d "q" q;
  let d' = Pdat.Rewire.apply d [] in
  check "same stats before resynthesis" true
    (Netlist.Stats.of_design d = Netlist.Stats.of_design d');
  let opt = Netlist.Stats.of_design (fst (Synthkit.Optimize.run d)) in
  let opt' = Netlist.Stats.of_design (fst (Synthkit.Optimize.run d')) in
  check "same stats after resynthesis" true (opt = opt')

let test_rewire_unknown_cell () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  D.add_output d "x" (D.add_cell d C.And2 [| a; b |]);
  let raises cell =
    try
      ignore (Pdat.Rewire.apply d [ Engine.Candidate.Implies { cell; a; b } ]);
      false
    with Invalid_argument _ -> true
  in
  check "cell id past the end rejected" true (raises (D.num_cells d));
  check "negative cell id rejected" true (raises (-1))

let test_rewire_chain () =
  (* implication redirect onto a net itself proved constant *)
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.And2 [| a; b |] in
  D.add_output d "x" x;
  let cell = Option.get (D.driver d x) in
  let d' =
    Pdat.Rewire.apply d
      [ Engine.Candidate.Implies { cell; a; b };
        Engine.Candidate.Const (a, true) ]
  in
  check "chained to rail" true
    (sim_output d' [ ("a", 0L); ("b", 0L) ] = [ ("x", -1L) ])

(* --- environment monitors ---------------------------------------------- *)

(* a bare 32-bit port design to host a monitor *)
let port_design () =
  let d = D.create "port" in
  let nets = Array.init 32 (fun i -> D.add_input d (Printf.sprintf "instr_rdata[%d]" i)) in
  (* keep a visible output so the design is non-trivial *)
  D.add_output d "parity" (D.add_cell d C.Xor2 [| nets.(0); nets.(1) |]);
  d

let monitor_accepts subset word =
  let d = port_design () in
  let env = Pdat.Environment.riscv_port d ~port:"instr_rdata" subset in
  let sim = Netlist.Sim64.create env.Pdat.Environment.model in
  Netlist.Sim64.set_bus sim
    (D.input_bus env.Pdat.Environment.model "instr_rdata")
    word;
  Netlist.Sim64.eval sim;
  Netlist.Sim64.read sim env.Pdat.Environment.assume = -1L

let reference_accepts subset word =
  let is16 = word land 3 <> 3 in
  List.exists
    (fun nm ->
      let i = Isa.Rv32.find nm in
      let e = i.Isa.Rv32.enc in
      if e.Isa.Encoding.width = 16 then
        is16 && Isa.Encoding.matches e (word land 0xFFFF)
      else (not is16) && Isa.Encoding.matches e word)
    (Isa.Subset.instructions subset)

let qcheck_monitor_matches_reference =
  QCheck.Test.make ~name:"port monitor equals reference semantics" ~count:150
    QCheck.(int_range 0 0xFFFFFFF)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let subset = Isa.Subset.rv32imc in
      (* half the samples are valid instructions, half random words *)
      let word =
        if Random.State.bool rng then
          let instrs = Isa.Subset.instructions subset in
          let i = Isa.Rv32.find (List.nth instrs (Random.State.int rng (List.length instrs))) in
          let w = Isa.Encoding.random_instance rng i.Isa.Rv32.enc in
          if i.Isa.Rv32.enc.Isa.Encoding.width = 16 then
            w lor (Random.State.int rng 0x10000 lsl 16)
          else w
        else Random.State.bits rng lor (Random.State.bits rng lsl 30)
      in
      let word = word land 0xFFFFFFFF in
      monitor_accepts subset word = reference_accepts subset word)

let test_stimulus_satisfies_monitor () =
  let d = port_design () in
  let subset = Isa.Workloads.riscv_all in
  let env = Pdat.Environment.riscv_port d ~port:"instr_rdata" subset in
  let sim = Netlist.Sim64.create env.Pdat.Environment.model in
  let rng = Random.State.make [| 5 |] in
  for _ = 1 to 200 do
    List.iter
      (fun (n, v) -> Netlist.Sim64.set_input sim n v)
      (env.Pdat.Environment.stimulus.Engine.Stimulus.drive rng);
    Netlist.Sim64.eval sim;
    if Netlist.Sim64.read sim env.Pdat.Environment.assume <> -1L then
      Alcotest.fail "stimulus produced a word the monitor rejects"
  done

(* --- pipeline on a small design ----------------------------------------- *)

(* environment: en is always 0 *)
let en0_env d =
  let model = D.copy d in
  let en_net = Option.get (D.find_input model "en") in
  let inv = D.add_cell model C.Inv [| en_net |] in
  {
    Pdat.Environment.model;
    assume = inv;
    stimulus =
      Engine.Stimulus.
        { drive = (fun _ -> [ (Option.get (D.find_input d "en"), 0L) ]) };
    cuts = [||];
    description = "en=0";
  }

let test_pipeline_small_design () =
  (* an input-gated accumulator: constraining the gate input to 0
     freezes the accumulator and PDAT removes it *)
  let c = Hdl.Ctx.create "acc" in
  let en = Hdl.Ctx.input c "en" 1 in
  let data = Hdl.Ctx.input c "data" 8 in
  let acc = Hdl.Reg.reg_en c "acc" ~en (Hdl.Ops.( +: ) data data) in
  Hdl.Ctx.output c "acc" acc;
  Hdl.Ctx.output c "pass" data;
  let d = Hdl.Ctx.finish c in
  let env = en0_env d in
  let result = Pdat.Pipeline.run ~design:d ~env () in
  let before = result.Pdat.Pipeline.report.Pdat.Pipeline.before in
  let after = result.Pdat.Pipeline.report.Pdat.Pipeline.after in
  check "flops removed" true
    (after.Netlist.Stats.flops < before.Netlist.Stats.flops);
  check_int "all 8 accumulator flops gone" 0 after.Netlist.Stats.flops;
  (* outputs still correct for allowed behaviour *)
  let sim = Netlist.Sim64.create result.Pdat.Pipeline.reduced in
  Netlist.Sim64.set_bus sim (D.input_bus result.Pdat.Pipeline.reduced "data") 0x2A;
  Netlist.Sim64.eval sim;
  check_int "pass-through intact" 0x2A
    (Netlist.Sim64.read_bus sim (D.output_bus result.Pdat.Pipeline.reduced "pass"))

(* --- guard layer: validation, fault injection, deadlines ---------------- *)

(* A design exercising every fault class: a provably-frozen accumulator
   (constants to flip), a live toggle register (a bogus-invariant
   target), a gate mixing a frozen net with live data (a miswire site),
   and pure combinational logic surviving resynthesis (a perturb
   site). *)
let guard_design () =
  let open Hdl.Ops in
  let c = Hdl.Ctx.create "guard" in
  let en = Hdl.Ctx.input c "en" 1 in
  let data = Hdl.Ctx.input c "data" 8 in
  let acc = Hdl.Reg.reg_en c "acc" ~en (data +: data) in
  Hdl.Ctx.output c "acc" acc;
  Hdl.Ctx.output c "parity" (reduce_xor data);
  Hdl.Ctx.output c "mix" (bit acc 0 |: bit data 0);
  let tog = Hdl.Reg.create c ~init:0 ~width:1 "tog" in
  Hdl.Reg.connect tog ~:(Hdl.Reg.q tog);
  Hdl.Ctx.output c "tog" (Hdl.Reg.q tog);
  Hdl.Ctx.finish c

let test_validate_accepts_copy () =
  let d = guard_design () in
  match
    Pdat.Validate.run ~original:d ~reduced:(D.copy d)
      ~env:(Pdat.Environment.unconstrained d) ()
  with
  | Pdat.Validate.Equivalent { observations; _ } ->
      check "observed lanes" true (observations > 0)
  | o -> Alcotest.failf "expected equivalence, got %s" (Pdat.Validate.describe o)

let test_validate_detects_divergence () =
  let mk kind =
    let d = D.create "t" in
    let a = D.add_input d "a" in
    let b = D.add_input d "b" in
    D.add_output d "x" (D.add_cell d kind [| a; b |]);
    d
  in
  let original = mk C.And2 and broken = mk C.Or2 in
  match
    Pdat.Validate.run ~original ~reduced:broken
      ~env:(Pdat.Environment.unconstrained original) ()
  with
  | Pdat.Validate.Divergent dv ->
      Alcotest.(check string) "output name" "x" dv.Pdat.Validate.output;
      check_int "first run" 1 dv.Pdat.Validate.run;
      check_int "first cycle" 1 dv.Pdat.Validate.cycle;
      check "lane in range" true
        (dv.Pdat.Validate.lane >= 0 && dv.Pdat.Validate.lane < 64)
  | o -> Alcotest.failf "expected divergence, got %s" (Pdat.Validate.describe o)

let test_validate_unsupported_interface () =
  let d = guard_design () in
  let empty = D.create "empty" in
  match
    Pdat.Validate.run ~original:d ~reduced:empty
      ~env:(Pdat.Environment.unconstrained d) ()
  with
  | Pdat.Validate.Unsupported _ -> ()
  | o -> Alcotest.failf "expected unsupported, got %s" (Pdat.Validate.describe o)

let test_pipeline_validates_unfaulted () =
  let d = guard_design () in
  let r = Pdat.Pipeline.run ~validate:true ~design:d ~env:(en0_env d) () in
  let rep = r.Pdat.Pipeline.report in
  check "validated" true rep.Pdat.Pipeline.validated;
  check "no fallback" true (rep.Pdat.Pipeline.fallback_reason = None);
  check "no fault" true (rep.Pdat.Pipeline.injected_fault = None);
  (match rep.Pdat.Pipeline.validation with
  | Some (Pdat.Validate.Equivalent { observations; _ }) ->
      check "observed lanes" true (observations > 0)
  | _ -> Alcotest.fail "expected a recorded equivalence outcome");
  check "validate stage timed" true
    (List.mem_assoc "validate" rep.Pdat.Pipeline.stage_seconds);
  (* the guard layer must not change the reduction itself *)
  let r0 = Pdat.Pipeline.run ~design:d ~env:(en0_env d) () in
  check "area/gate deltas unchanged by validation" true
    (rep.Pdat.Pipeline.after = r0.Pdat.Pipeline.report.Pdat.Pipeline.after)

let test_pipeline_fault_matrix () =
  let d = guard_design () in
  List.iter
    (fun kind ->
      let r =
        (Pdat.Pipeline.run ~validate:true ~lint:Analysis.Lint.Strict
           ~inject:{ Pdat.Faults.kind; seed = 7 } ~design:d ~env:(en0_env d) ())
          .Pdat.Pipeline.report
      in
      let nm = Pdat.Faults.name kind in
      check (nm ^ " found an injection site") true
        (r.Pdat.Pipeline.injected_fault <> None);
      check (nm ^ " caught by the validator") true
        ((not r.Pdat.Pipeline.validated)
        && r.Pdat.Pipeline.fallback_reason <> None);
      (* every pre-resynthesis fault must be caught by the certificate
         audit alone — zero simulation cycles; Perturb_cell corrupts
         after the certified stage, so only the validator can see it *)
      let expect_static = kind <> Pdat.Faults.Perturb_cell in
      check
        (nm
        ^
        if expect_static then " caught statically by the audit"
        else " is differential-only")
        expect_static
        (Analysis.Diag.errors r.Pdat.Pipeline.audit <> []))
    Pdat.Faults.all

let test_pipeline_strict_lint_clean_run () =
  (* a clean design under the Strict gate: linted, certified, audited —
     and the reduction itself is untouched by the analysis layer *)
  let d = guard_design () in
  let r =
    Pdat.Pipeline.run ~validate:true ~lint:Analysis.Lint.Strict ~design:d
      ~env:(en0_env d) ()
  in
  let rep = r.Pdat.Pipeline.report in
  check "validated" true rep.Pdat.Pipeline.validated;
  check "no fallback" true (rep.Pdat.Pipeline.fallback_reason = None);
  check "gate recorded" true
    (rep.Pdat.Pipeline.lint_gate = Analysis.Lint.Strict);
  check "no error-severity input findings" true
    (Analysis.Diag.errors rep.Pdat.Pipeline.input_lint = []);
  check "audit accepted the certificate" true (rep.Pdat.Pipeline.audit = []);
  check "rewiring emitted certified edits" true
    (rep.Pdat.Pipeline.certificate_edits > 0);
  check "lint stage timed" true
    (List.mem_assoc "lint" rep.Pdat.Pipeline.stage_seconds);
  check "audit stage timed" true
    (List.mem_assoc "audit" rep.Pdat.Pipeline.stage_seconds);
  (* the static gate must not change the reduction *)
  let r0 = Pdat.Pipeline.run ~design:d ~env:(en0_env d) () in
  check "area/gate deltas unchanged by the static gate" true
    (rep.Pdat.Pipeline.after = r0.Pdat.Pipeline.report.Pdat.Pipeline.after)

(* At the CLI's default Warn gate, an audit Error falls back to the
   baseline as it does under Strict.  Validation is off, so the audit
   alone decides. *)
let test_pipeline_warn_audit_falls_back () =
  let d = guard_design () in
  List.iter
    (fun kind ->
      let nm = Pdat.Faults.name kind in
      let r =
        Pdat.Pipeline.run ~lint:Analysis.Lint.Warn
          ~inject:{ Pdat.Faults.kind; seed = 7 } ~design:d ~env:(en0_env d) ()
      in
      let rep = r.Pdat.Pipeline.report in
      check (nm ^ " injected") true (rep.Pdat.Pipeline.injected_fault <> None);
      check (nm ^ " rejected by the audit") true
        (Analysis.Diag.errors rep.Pdat.Pipeline.audit <> []);
      (match rep.Pdat.Pipeline.fallback_reason with
      | Some reason ->
          check (nm ^ " falls back with an audit: reason") true
            (String.length reason > 6 && String.sub reason 0 6 = "audit:")
      | None -> Alcotest.failf "%s: the Warn gate shipped the reduction" nm);
      check (nm ^ " ships the baseline") true
        (rep.Pdat.Pipeline.after = rep.Pdat.Pipeline.before))
    [ Pdat.Faults.Flip_constant; Pdat.Faults.Bogus_invariant; Pdat.Faults.Miswire ]

let test_pipeline_rejects_malformed_input () =
  (* satellite: a cell referencing a nonexistent net surfaces as a
     located Rejected from the always-on well-formedness precheck —
     never a bare Invalid_argument from deep inside a stage — even
     with the lint gate Off *)
  let d = guard_design () in
  let en = Option.get (D.find_input d "en") in
  let bad = D.substitute d (fun n -> if n = en then D.num_nets d + 41 else n) in
  match Pdat.Pipeline.run ~design:bad ~env:(en0_env bad) () with
  | _ -> Alcotest.fail "pipeline accepted a design with out-of-range nets"
  | exception Pdat.Pipeline.Rejected ds ->
      check "diagnostics present" true (ds <> []);
      check "every finding is net-out-of-range" true
        (List.for_all
           (fun x -> x.Analysis.Diag.rule = "net-out-of-range")
           ds);
      check "findings are located at cells" true
        (List.exists
           (fun x ->
             match x.Analysis.Diag.loc with
             | Analysis.Diag.Cell _ -> true
             | _ -> false)
           ds)

let test_pipeline_fallback_reports_reason () =
  let d = guard_design () in
  let r =
    Pdat.Pipeline.run ~validate:true
      ~inject:{ Pdat.Faults.kind = Pdat.Faults.Perturb_cell; seed = 7 }
      ~design:d ~env:(en0_env d) ()
  in
  let rep = r.Pdat.Pipeline.report in
  check "fault applied" true (rep.Pdat.Pipeline.injected_fault <> None);
  check "not validated" false rep.Pdat.Pipeline.validated;
  (match rep.Pdat.Pipeline.fallback_reason with
  | Some reason -> check "reason mentions divergence" true
      (String.length reason > 0)
  | None -> Alcotest.fail "expected a fallback reason");
  (* the fallback result is the baseline, not the corrupted reduction *)
  check "fallback matches baseline stats" true
    (rep.Pdat.Pipeline.after = rep.Pdat.Pipeline.before)

let test_pipeline_budget_reclaim () =
  (* regression: the proof stage must inherit the budget that mining and
     refinement did not use, instead of being capped at a hard fraction
     of the total.  On this tiny design mine+refine take well under a
     second, so with validation off virtually the whole 40s budget must
     reach the prover (the old hard-coded checkpoints capped it at 85%,
     minus everything the earlier stages were *allotted* but never
     used). *)
  let d = guard_design () in
  let budget = 40. in
  let r = Pdat.Pipeline.run ~time_budget:budget ~design:d ~env:(en0_env d) () in
  let rep = r.Pdat.Pipeline.report in
  check "proof stage reclaims unused mining/refinement budget" true
    (rep.Pdat.Pipeline.proof_budget_s > 0.9 *. budget);
  check "pipeline still reduces under a generous budget" true
    (rep.Pdat.Pipeline.proved > 0);
  (* with validation on, the validator's share is genuinely reserved *)
  let rv =
    Pdat.Pipeline.run ~validate:true ~time_budget:budget ~design:d
      ~env:(en0_env d) ()
  in
  check "validator share reserved when validation is on" true
    (rv.Pdat.Pipeline.report.Pdat.Pipeline.proof_budget_s < 0.9 *. budget);
  (* no budget at all: the allocator stays out of the way *)
  let r0 = Pdat.Pipeline.run ~design:d ~env:(en0_env d) () in
  check "no budget, no allocation" true
    (r0.Pdat.Pipeline.report.Pdat.Pipeline.proof_budget_s = 0.)

let test_validate_divergence_fields_jobs () =
  (* a faulted run given a worker count: [jobs] is accepted and ignored
     (the prover is serial), and the divergence report must still carry
     the reproduction coordinates (run, cycle, lane, seed) *)
  let d = guard_design () in
  let r =
    Pdat.Pipeline.run ~jobs:2 ~validate:true
      ~inject:{ Pdat.Faults.kind = Pdat.Faults.Perturb_cell; seed = 7 }
      ~design:d ~env:(en0_env d) ()
  in
  let rep = r.Pdat.Pipeline.report in
  check "fault applied" true (rep.Pdat.Pipeline.injected_fault <> None);
  check "not validated" false rep.Pdat.Pipeline.validated;
  match rep.Pdat.Pipeline.validation with
  | Some (Pdat.Validate.Divergent dv) ->
      check "run indexed from 1" true (dv.Pdat.Validate.run >= 1);
      check "cycle indexed from 1" true (dv.Pdat.Validate.cycle >= 1);
      check "lane in range" true
        (dv.Pdat.Validate.lane >= 0 && dv.Pdat.Validate.lane < 64);
      check "divergent output named" true
        (String.length dv.Pdat.Validate.output > 0);
      check "stimulus seed reported for reproduction" true
        (dv.Pdat.Validate.seed <> 0)
  | _ -> Alcotest.fail "expected a recorded divergence"

let test_pipeline_time_budget_degrades () =
  let d = guard_design () in
  (* a budget so small every stage deadline is already expired: the
     pipeline must still terminate and return a working design *)
  let r =
    Pdat.Pipeline.run ~time_budget:1e-6 ~design:d ~env:(en0_env d) ()
  in
  let rep = r.Pdat.Pipeline.report in
  check_int "nothing mined in time" 0 rep.Pdat.Pipeline.mined;
  check_int "nothing proved" 0 rep.Pdat.Pipeline.proved;
  check "result is a valid netlist" true
    (D.validate r.Pdat.Pipeline.reduced = Ok ());
  check "no reduction claimed" true
    (rep.Pdat.Pipeline.after = rep.Pdat.Pipeline.before)

(* --- end-to-end on the Ibex-class core ---------------------------------- *)

(* Run a program on a design through the testbench and collect the
   values it stores to memory. *)
let run_and_dump design program ~cycles ~addrs =
  let tb = Cores.Testbench.create design ~program () in
  Cores.Testbench.run tb ~cycles;
  List.map (fun a -> Cores.Testbench.read_mem32 tb a) addrs

let test_reduced_ibex_runs_subset_program () =
  let t = Cores.Ibex_like.build () in
  let d = t.Cores.Ibex_like.design in
  let env =
    Pdat.Environment.riscv_cutpoint d ~nets:(Cores.Ibex_like.cutpoint_nets t)
      Isa.Subset.rv32i
  in
  (* the env constrains cutpoints deep inside the model, so give the
     differential validator port-level stimuli biased toward legal
     rv32i words instead of its unconstrained default *)
  let validate_stimulus =
    (Pdat.Environment.riscv_port d ~port:"instr_rdata" Isa.Subset.rv32i)
      .Pdat.Environment.stimulus
  in
  let result =
    Pdat.Pipeline.run
      ~rsim:{ Engine.Rsim.default with Engine.Rsim.cycles = 384; runs = 2 }
      ~validate:true ~validate_stimulus ~design:d ~env ()
  in
  check "meaningful reduction" true
    (Pdat.Pipeline.gate_delta_pct result.Pdat.Pipeline.report > 10.0);
  check "reduction validated" true
    result.Pdat.Pipeline.report.Pdat.Pipeline.validated;
  check "no fallback" true
    (result.Pdat.Pipeline.report.Pdat.Pipeline.fallback_reason = None);
  (* an rv32i program: compute and store results *)
  let p = Isa.Asm.create () in
  Isa.Asm.li p ~rd:1 1000;
  Isa.Asm.li p ~rd:2 0;
  Isa.Asm.li p ~rd:3 5;
  Isa.Asm.label p "loop";
  Isa.Asm.add p ~rd:2 ~rs1:2 ~rs2:1;
  Isa.Asm.addi p ~rd:1 ~rs1:1 (-100);
  Isa.Asm.addi p ~rd:3 ~rs1:3 (-1);
  Isa.Asm.bne p ~rs1:3 ~rs2:0 "loop";
  Isa.Asm.li p ~rd:5 0x80;
  Isa.Asm.sw p ~rs2:2 ~rs1:5 0;
  Isa.Asm.sw p ~rs2:1 ~rs1:5 4;
  Isa.Asm.xor p ~rd:6 ~rs1:2 ~rs2:1;
  Isa.Asm.sw p ~rs2:6 ~rs1:5 8;
  Isa.Asm.label p "end";
  Isa.Asm.j p "end";
  let program = Isa.Asm.assemble p in
  let addrs = [ 0x80; 0x84; 0x88 ] in
  let base = run_and_dump d program ~cycles:200 ~addrs in
  let reduced =
    run_and_dump result.Pdat.Pipeline.reduced program ~cycles:200 ~addrs
  in
  check "identical architectural results" true (base = reduced);
  check "program actually computed" true (List.nth base 0 = 4000)

let test_reduced_cm0_validates () =
  let t = Cores.Cm0_like.build () in
  let d = t.Cores.Cm0_like.design in
  let env =
    Pdat.Environment.arm_port d ~port:"instr_rdata"
      Isa.Subset.armv6m_interesting
  in
  let result =
    Pdat.Pipeline.run
      ~rsim:{ Engine.Rsim.default with Engine.Rsim.cycles = 400; runs = 2 }
      ~validate:true ~design:d ~env ()
  in
  let rep = result.Pdat.Pipeline.report in
  check "proved something" true (rep.Pdat.Pipeline.proved > 0);
  check "reduction validated" true rep.Pdat.Pipeline.validated;
  check "no fallback" true (rep.Pdat.Pipeline.fallback_reason = None)

let test_catalog () =
  check "catalog has the three property classes" true
    (List.length Pdat.Property_library.catalog = 3);
  List.iter
    (fun pc ->
      check "documented" true (String.length pc.Pdat.Property_library.description > 0);
      check "has cells" true (pc.Pdat.Property_library.applies_to <> []))
    Pdat.Property_library.catalog

(* --- the experiment catalog and its runner ------------------------------ *)

module V = Experiments.Variants

let test_catalog_ids () =
  let ids = List.map (fun v -> v.V.id) V.all in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  check "variant ids unique" true (distinct ids);
  check "figure ids unique" true (distinct V.figures);
  check "no id names both a variant and a figure" true
    (List.for_all (fun f -> not (List.mem f ids)) V.figures);
  check "every variant sits in a listed figure" true
    (List.for_all (fun v -> List.mem v.V.figure V.figures) V.all)

let test_catalog_figures_start_with_full () =
  (* Figure 5's three panels (fig5-isa, fig5-mibench, fig5-special)
     share the Full row that opens the first one.  A baseline ignores
     the design, so an empty one is enough to ask. *)
  let empty = D.create "empty" in
  let is_full v = String.ends_with ~suffix:"Full" v.V.label in
  let paper_figure f = List.hd (String.split_on_char '-' f) in
  List.iter
    (fun fig ->
      let panels =
        List.filter (fun f -> paper_figure f = fig) V.figures
      in
      match List.concat_map V.by_figure panels with
      | [] -> Alcotest.failf "figure %s has no variants" fig
      | first :: rest ->
          check (fig ^ " starts with its Full baseline") true
            (is_full first
            && Option.is_none (first.V.make_env empty ~cut_nets:None));
          check (fig ^ " has one Full row") false (List.exists is_full rest))
    (List.sort_uniq compare (List.map paper_figure V.figures))

let test_runner_full_row () =
  let r = Experiments.Runner.run ~fast:true (V.find "ibex-full") in
  check_int "nothing proved" 0 r.Experiments.Runner.proved;
  check_int "gates are the baseline's" r.Experiments.Runner.baseline_gates
    r.Experiments.Runner.gates;
  check "0% area delta" true (Experiments.Runner.area_delta r = 0.);
  check "0% gate delta" true (Experiments.Runner.gate_delta r = 0.)

let test_runner_heading_states_baseline () =
  (* fig5-mibench has no Full row, so only the heading can show what
     its deltas are against *)
  let rows =
    List.map
      (fun v ->
        {
          Experiments.Runner.variant = v;
          area = 900.;
          gates = 90;
          baseline_area = 1234.5;
          baseline_gates = 678;
          proved = 1;
          seconds = 0.;
        })
      (V.by_figure "fig5-mibench")
  in
  let out =
    Format.asprintf "%a"
      (Experiments.Runner.pp_rows ~title:(V.title "fig5-mibench"))
      rows
  in
  match String.split_on_char '\n' out with
  | title :: baseline :: body ->
      check "title first" true (title = "== " ^ V.title "fig5-mibench" ^ " ==");
      Alcotest.(check string)
        "baseline under the title" "deltas against Full: 1234.5 um^2, 678 gates"
        baseline;
      check_int "then one line per row" (List.length rows)
        (List.length (List.filter (( <> ) "") body))
  | _ -> Alcotest.fail "no heading"

let test_runner_variant_states_baseline () =
  (* [pdat run <variant-id>] prints one row, under the line that says
     what its deltas are against *)
  let row =
    {
      Experiments.Runner.variant = V.find "ibex-rv32i";
      area = 900.;
      gates = 90;
      baseline_area = 1234.5;
      baseline_gates = 678;
      proved = 1;
      seconds = 0.;
    }
  in
  let out =
    Format.asprintf "%a" (Experiments.Runner.pp_rows ?title:None) [ row ]
  in
  match String.split_on_char '\n' out with
  | [ baseline; line; "" ] ->
      Alcotest.(check string)
        "baseline first" "deltas against Full: 1234.5 um^2, 678 gates"
        baseline;
      Alcotest.(check string)
        "then the row" (Format.asprintf "%a" Experiments.Runner.pp_row row)
        line
  | _ -> Alcotest.failf "expected a baseline line and a row, got %S" out

let test_catalog_aligned_constrains_data_address () =
  let core = Cores.Ibex_like.build () in
  let d = core.Cores.Ibex_like.design in
  let nets = Cores.Ibex_like.cutpoint_nets core in
  let plain =
    Pdat.Environment.riscv_cutpoint d ~nets Isa.Subset.rv32i_aligned
  in
  match (V.find "ibex-aligned").V.make_env d ~cut_nets:(Some nets) with
  | None -> Alcotest.fail "the Aligned variant must constrain its core"
  | Some env ->
      check "data-address constraint on top of the subset" true
        (env.Pdat.Environment.description
         = plain.Pdat.Environment.description ^ " + aligned");
      check "the monitor grew" true
        (D.num_cells env.Pdat.Environment.model
        > D.num_cells plain.Pdat.Environment.model)

let () =
  Alcotest.run "pdat"
    [
      ( "rewire",
        [
          Alcotest.test_case "const" `Quick test_rewire_const;
          Alcotest.test_case "implies and" `Quick test_rewire_implies_and;
          Alcotest.test_case "implies or" `Quick test_rewire_implies_or;
          Alcotest.test_case "implies nand/nor" `Quick test_rewire_implies_nand_nor;
          Alcotest.test_case "chains" `Quick test_rewire_chain;
          Alcotest.test_case "empty proof set is identity" `Quick
            test_rewire_empty_is_identity;
          Alcotest.test_case "unknown cell rejected" `Quick
            test_rewire_unknown_cell;
        ] );
      ( "environment",
        [
          Alcotest.test_case "stimulus satisfies monitor" `Quick
            test_stimulus_satisfies_monitor;
          QCheck_alcotest.to_alcotest qcheck_monitor_matches_reference;
        ] );
      ( "validate",
        [
          Alcotest.test_case "accepts an exact copy" `Quick
            test_validate_accepts_copy;
          Alcotest.test_case "detects divergence" `Quick
            test_validate_detects_divergence;
          Alcotest.test_case "unsupported interface" `Quick
            test_validate_unsupported_interface;
        ] );
      ( "guard",
        [
          Alcotest.test_case "unfaulted run validates" `Quick
            test_pipeline_validates_unfaulted;
          Alcotest.test_case "fault matrix all caught" `Quick
            test_pipeline_fault_matrix;
          Alcotest.test_case "divergence coordinates under jobs=2" `Quick
            test_validate_divergence_fields_jobs;
          Alcotest.test_case "strict lint gate on a clean run" `Quick
            test_pipeline_strict_lint_clean_run;
          Alcotest.test_case "warn gate falls back on an audit error" `Quick
            test_pipeline_warn_audit_falls_back;
          Alcotest.test_case "malformed input rejected with location" `Quick
            test_pipeline_rejects_malformed_input;
          Alcotest.test_case "fallback reports reason" `Quick
            test_pipeline_fallback_reports_reason;
          Alcotest.test_case "time budget degrades gracefully" `Quick
            test_pipeline_time_budget_degrades;
          Alcotest.test_case "proof stage reclaims stage budget" `Quick
            test_pipeline_budget_reclaim;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "small design" `Quick test_pipeline_small_design;
          Alcotest.test_case "reduced ibex equivalence" `Slow
            test_reduced_ibex_runs_subset_program;
          Alcotest.test_case "reduced cm0 validates" `Slow
            test_reduced_cm0_validates;
        ] );
      ("property library", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
      ( "experiments",
        [
          Alcotest.test_case "variant and figure ids" `Quick test_catalog_ids;
          Alcotest.test_case "figures start with their Full row" `Quick
            test_catalog_figures_start_with_full;
          Alcotest.test_case "full row: 0 proved, 0% deltas" `Quick
            test_runner_full_row;
          Alcotest.test_case "a figure's heading states its baseline" `Quick
            test_runner_heading_states_baseline;
          Alcotest.test_case "a variant's row states its baseline" `Quick
            test_runner_variant_states_baseline;
          Alcotest.test_case "aligned constrains the data address" `Quick
            test_catalog_aligned_constrains_data_address;
        ] );
    ]
