(* Architectural tests for the RIDECORE-like out-of-order core.
   Register state is read through the committed rename table, so checks
   run after the ROB has drained (the trailing idle loop only keeps
   fetching a backwards jump). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a smaller configuration keeps unit-test latency reasonable; the
   full-size core is exercised by the scale test and the benches *)
let core = lazy (Cores.Ridecore_like.build ~config:Cores.Ridecore_like.fast_config ())

let peek_reg tb k =
  let t = Lazy.force core in
  let p = Cores.Testbench.read_bus tb (Cores.Ridecore_like.peek_crat_nets t k) in
  Cores.Testbench.read_bus tb (Cores.Ridecore_like.peek_prf_nets t p)

let run_program ?(cycles = 400) build =
  let t = Lazy.force core in
  let p = Isa.Asm.create () in
  build p;
  Isa.Asm.label p "_tb_end";
  Isa.Asm.j p "_tb_end";
  let tb =
    Cores.Testbench.create t.Cores.Ridecore_like.design
      ~program:(Isa.Asm.assemble p) ()
  in
  Cores.Testbench.run tb ~cycles;
  tb

let u32 v = v land 0xFFFFFFFF

let test_alu_independent () =
  let tb =
    run_program (fun p ->
        Isa.Asm.li p ~rd:1 10;
        Isa.Asm.li p ~rd:2 20;
        Isa.Asm.li p ~rd:3 30;
        Isa.Asm.li p ~rd:4 40;
        Isa.Asm.add p ~rd:5 ~rs1:1 ~rs2:2;
        Isa.Asm.add p ~rd:6 ~rs1:3 ~rs2:4;
        Isa.Asm.sub p ~rd:7 ~rs1:4 ~rs2:1;
        Isa.Asm.xor p ~rd:8 ~rs1:2 ~rs2:3)
  in
  check_int "r5" 30 (peek_reg tb 5);
  check_int "r6" 70 (peek_reg tb 6);
  check_int "r7" 30 (peek_reg tb 7);
  check_int "r8" (20 lxor 30) (peek_reg tb 8)

let test_dependency_chain () =
  let tb =
    run_program (fun p ->
        Isa.Asm.li p ~rd:1 1;
        Isa.Asm.add p ~rd:2 ~rs1:1 ~rs2:1;
        Isa.Asm.add p ~rd:3 ~rs1:2 ~rs2:2;
        Isa.Asm.add p ~rd:4 ~rs1:3 ~rs2:3;
        Isa.Asm.add p ~rd:5 ~rs1:4 ~rs2:4;
        Isa.Asm.add p ~rd:6 ~rs1:5 ~rs2:5)
  in
  check_int "chain doubles" 32 (peek_reg tb 6)

let test_same_pair_dependency () =
  (* the second instruction of a fetch pair depends on the first *)
  let tb =
    run_program (fun p ->
        Isa.Asm.li p ~rd:1 7;
        Isa.Asm.nop p;
        Isa.Asm.addi p ~rd:2 ~rs1:1 1;   (* slot 0 *)
        Isa.Asm.addi p ~rd:3 ~rs1:2 1)   (* slot 1, needs slot 0 *)
  in
  check_int "pair dependency" 9 (peek_reg tb 3)

let test_waw_rename () =
  (* two writes to the same register in one pair: younger must win *)
  let tb =
    run_program (fun p ->
        Isa.Asm.li p ~rd:1 5;
        Isa.Asm.nop p;
        Isa.Asm.addi p ~rd:2 ~rs1:0 11;  (* slot 0 writes x2 *)
        Isa.Asm.addi p ~rd:2 ~rs1:0 22)  (* slot 1 writes x2 *)
  in
  check_int "waw" 22 (peek_reg tb 2)

let test_branches_and_misprediction () =
  let tb =
    run_program ~cycles:600 (fun p ->
        Isa.Asm.li p ~rd:1 0;
        Isa.Asm.li p ~rd:2 5;
        Isa.Asm.label p "loop";
        Isa.Asm.addi p ~rd:1 ~rs1:1 2;
        Isa.Asm.addi p ~rd:2 ~rs1:2 (-1);
        Isa.Asm.bne p ~rs1:2 ~rs2:0 "loop";
        Isa.Asm.addi p ~rd:3 ~rs1:1 100)
  in
  check_int "loop result" 10 (peek_reg tb 1);
  check_int "after loop" 110 (peek_reg tb 3)

let test_jal_jalr () =
  let tb =
    run_program ~cycles:600 (fun p ->
        Isa.Asm.li p ~rd:10 0;
        Isa.Asm.jal p ~rd:1 "func";
        Isa.Asm.addi p ~rd:10 ~rs1:10 100;
        Isa.Asm.j p "_stop";
        Isa.Asm.label p "func";
        Isa.Asm.addi p ~rd:10 ~rs1:10 1;
        Isa.Asm.jalr p ~rd:0 ~rs1:1 0;
        Isa.Asm.label p "_stop";
        Isa.Asm.nop p)
  in
  check_int "call/return" 101 (peek_reg tb 10)

let test_loads_stores () =
  let tb =
    run_program ~cycles:600 (fun p ->
        Isa.Asm.li p ~rd:1 0x100;
        Isa.Asm.li p ~rd:2 0xDEAD;
        Isa.Asm.sw p ~rs2:2 ~rs1:1 0;
        Isa.Asm.lw p ~rd:3 ~rs1:1 0;
        Isa.Asm.addi p ~rd:4 ~rs1:3 1;
        Isa.Asm.sb p ~rs2:4 ~rs1:1 4;
        Isa.Asm.lbu p ~rd:5 ~rs1:1 4)
  in
  check_int "store/load" 0xDEAD (peek_reg tb 3);
  check_int "byte store/load" 0xAE (peek_reg tb 5)

let test_mul () =
  let tb =
    run_program ~cycles:800 (fun p ->
        Isa.Asm.li p ~rd:1 (-6);
        Isa.Asm.li p ~rd:2 7;
        Isa.Asm.mul p ~rd:3 ~rs1:1 ~rs2:2;
        Isa.Asm.mulhu p ~rd:4 ~rs1:2 ~rs2:2;
        Isa.Asm.add p ~rd:5 ~rs1:3 ~rs2:2)
  in
  check_int "mul" (u32 (-42)) (peek_reg tb 3);
  check_int "mulhu small" 0 (peek_reg tb 4);
  check_int "dependent on mul" (u32 (-35)) (peek_reg tb 5)

let test_div_is_nop () =
  (* RIDECORE does not implement division: div retires without writing *)
  let tb =
    run_program (fun p ->
        Isa.Asm.li p ~rd:3 77;
        Isa.Asm.li p ~rd:1 10;
        Isa.Asm.li p ~rd:2 2;
        Isa.Asm.div p ~rd:3 ~rs1:1 ~rs2:2;
        Isa.Asm.add p ~rd:4 ~rs1:3 ~rs2:0)
  in
  check_int "div left x3 alone" 77 (peek_reg tb 4)

let test_store_load_ordering () =
  (* a load must observe an older store to the same address *)
  let tb =
    run_program ~cycles:600 (fun p ->
        Isa.Asm.li p ~rd:1 0x200;
        Isa.Asm.li p ~rd:2 1;
        Isa.Asm.sw p ~rs2:2 ~rs1:1 0;
        Isa.Asm.lw p ~rd:3 ~rs1:1 0;
        Isa.Asm.addi p ~rd:2 ~rs1:3 1;
        Isa.Asm.sw p ~rs2:2 ~rs1:1 0;
        Isa.Asm.lw p ~rd:4 ~rs1:1 0)
  in
  check_int "first read-after-write" 1 (peek_reg tb 3);
  check_int "second read-after-write" 2 (peek_reg tb 4)

let test_fibonacci () =
  let tb =
    run_program ~cycles:1500 (fun p ->
        Isa.Asm.li p ~rd:1 0;
        Isa.Asm.li p ~rd:2 1;
        Isa.Asm.li p ~rd:3 10;
        Isa.Asm.label p "loop";
        Isa.Asm.beq p ~rs1:3 ~rs2:0 "done";
        Isa.Asm.add p ~rd:4 ~rs1:1 ~rs2:2;
        Isa.Asm.add p ~rd:1 ~rs1:0 ~rs2:2;
        Isa.Asm.add p ~rd:2 ~rs1:0 ~rs2:4;
        Isa.Asm.addi p ~rd:3 ~rs1:3 (-1);
        Isa.Asm.j p "loop";
        Isa.Asm.label p "done";
        Isa.Asm.nop p)
  in
  check_int "fib(10)" 55 (peek_reg tb 1)

let test_full_size_gate_count () =
  let t = Cores.Ridecore_like.build () in
  let st = Netlist.Stats.of_design t.Cores.Ridecore_like.design in
  let gates = Netlist.Stats.gate_count st in
  let ibex = Cores.Ibex_like.build () in
  let ibex_gates =
    Netlist.Stats.gate_count (Netlist.Stats.of_design ibex.Cores.Ibex_like.design)
  in
  (* Table II: RIDECORE is an order of magnitude larger than Ibex *)
  check
    (Printf.sprintf "ridecore %d gates >> ibex %d gates" gates ibex_gates)
    true
    (gates > 4 * ibex_gates)

let () =
  Alcotest.run "ridecore_like"
    [
      ( "execute",
        [
          Alcotest.test_case "independent alu" `Quick test_alu_independent;
          Alcotest.test_case "dependency chain" `Quick test_dependency_chain;
          Alcotest.test_case "pair dependency" `Quick test_same_pair_dependency;
          Alcotest.test_case "waw rename" `Quick test_waw_rename;
          Alcotest.test_case "branches" `Quick test_branches_and_misprediction;
          Alcotest.test_case "jal/jalr" `Quick test_jal_jalr;
          Alcotest.test_case "loads/stores" `Quick test_loads_stores;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "div is nop" `Quick test_div_is_nop;
          Alcotest.test_case "store/load ordering" `Quick test_store_load_ordering;
          Alcotest.test_case "fibonacci" `Quick test_fibonacci;
        ] );
      ( "scale",
        [ Alcotest.test_case "gate count vs ibex" `Slow test_full_size_gate_count ] );
    ]
