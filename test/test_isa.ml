(* Tests for the ISA models: encoding algebra, the RV32 and ARMv6-M
   tables, subset algebra, Table-I workload cardinalities and the
   assembler (cross-checked against the decoder). *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- encodings -------------------------------------------------------- *)

let test_encoding_parse () =
  let e = Isa.Encoding.of_pattern "0100000_zzzzz_zzzzz_000_zzzzz_0110011" in
  check_int "width" 32 e.Isa.Encoding.width;
  check "matches sub" true (Isa.Encoding.matches e 0x40000033);
  check "rejects add" false (Isa.Encoding.matches e 0x00000033);
  check "free fields ignored" true (Isa.Encoding.matches e 0x40c58533)

let test_encoding_errors () =
  check "bad width" true
    (try ignore (Isa.Encoding.of_pattern "010"); false
     with Invalid_argument _ -> true);
  check "bad char" true
    (try ignore (Isa.Encoding.of_pattern (String.make 32 '2')); false
     with Invalid_argument _ -> true)

let test_encoding_random_instance () =
  let rng = Random.State.make [| 3 |] in
  List.iter
    (fun i ->
      for _ = 1 to 20 do
        let w = Isa.Encoding.random_instance rng i.Isa.Rv32.enc in
        if not (Isa.Encoding.matches i.Isa.Rv32.enc w) then
          Alcotest.failf "random instance of %s does not match" i.Isa.Rv32.name
      done)
    Isa.Rv32.all

let test_encoding_overlap () =
  let lui = (Isa.Rv32.find "lui").Isa.Rv32.enc in
  let add = (Isa.Rv32.find "add").Isa.Rv32.enc in
  let sub = (Isa.Rv32.find "sub").Isa.Rv32.enc in
  check "lui vs add disjoint" false (Isa.Encoding.overlap lui add);
  check "add vs sub disjoint" false (Isa.Encoding.overlap add sub);
  let clui = (Isa.Rv32.find "c.lui").Isa.Rv32.enc in
  let c16 = (Isa.Rv32.find "c.addi16sp").Isa.Rv32.enc in
  check "c.lui overlaps c.addi16sp" true (Isa.Encoding.overlap clui c16)

(* --- rv32 table ------------------------------------------------------- *)

let test_rv32_counts () =
  check_int "base" 40 (List.length (Isa.Rv32.by_ext Isa.Rv32.I));
  check_int "m" 8 (List.length (Isa.Rv32.by_ext Isa.Rv32.M));
  check_int "c" 26 (List.length (Isa.Rv32.by_ext Isa.Rv32.C));
  check_int "zicsr" 6 (List.length (Isa.Rv32.by_ext Isa.Rv32.Zicsr));
  check_int "zifencei" 1 (List.length (Isa.Rv32.by_ext Isa.Rv32.Zifencei));
  check_int "total" 81 (List.length Isa.Rv32.all)

let test_rv32_decode () =
  let d32 name word =
    match Isa.Rv32.decode32 word with
    | Some i -> Alcotest.(check string) name name i.Isa.Rv32.name
    | None -> Alcotest.failf "decode32 failed for %s" name
  in
  d32 "add" 0x00b50533;
  d32 "sub" 0x40b50533;
  d32 "lui" 0x000100b7;
  d32 "ecall" 0x00000073;
  d32 "ebreak" 0x00100073;
  d32 "mul" 0x02b50533;
  d32 "csrrw" 0x30051073;
  d32 "fence.i" 0x0000100f;
  check "garbage undecodable" true (Isa.Rv32.decode32 0xFFFFFFFF = None)

let test_rv32_decode16_priority () =
  let d16 name word =
    match Isa.Rv32.decode16 word with
    | Some i -> Alcotest.(check string) name name i.Isa.Rv32.name
    | None -> Alcotest.failf "decode16 failed for %s" name
  in
  (* c.addi16sp is c.lui with rd=2 *)
  d16 "c.addi16sp" 0x6101;     (* addi16sp sp, 32 *)
  d16 "c.lui" 0x6185;          (* lui x3, 1 *)
  d16 "c.jr" 0x8082;           (* jr ra *)
  d16 "c.mv" 0x80b6;           (* mv ra, x13 *)
  d16 "c.ebreak" 0x9002;
  d16 "c.jalr" 0x9082;         (* jalr ra *)
  d16 "c.add" 0x90b6;
  check "compressed detection" true (Isa.Rv32.is_compressed 0x6101);
  check "32-bit detection" false (Isa.Rv32.is_compressed 0x00000033)

let test_rv32_no_same_ext_ambiguity () =
  (* random instances of each instruction must decode back to that
     instruction (the table's priority order handles aliasing) *)
  let rng = Random.State.make [| 11 |] in
  List.iter
    (fun i ->
      for _ = 1 to 10 do
        let w = Isa.Encoding.random_instance rng i.Isa.Rv32.enc in
        let decoded =
          if i.Isa.Rv32.enc.Isa.Encoding.width = 16 then Isa.Rv32.decode16 w
          else Isa.Rv32.decode32 w
        in
        match decoded with
        | None -> Alcotest.failf "%s: instance undecodable" i.Isa.Rv32.name
        | Some d ->
            (* the decode may resolve an overlap to a more specific
               instruction, but never to a different extension *)
            if d.Isa.Rv32.ext <> i.Isa.Rv32.ext then
              Alcotest.failf "%s decoded as %s across extensions" i.Isa.Rv32.name
                d.Isa.Rv32.name
      done)
    Isa.Rv32.all

(* --- armv6m ------------------------------------------------------------ *)

let test_arm_counts () =
  check_int "total" 83 (List.length Isa.Armv6m.all);
  check_int "wide" 7 (List.length Isa.Armv6m.wide);
  check_int "interesting" (83 - 12) (List.length Isa.Armv6m.interesting_subset)

let test_arm_decode () =
  let d name word =
    match Isa.Armv6m.decode16 word with
    | Some i -> Alcotest.(check string) name name i.Isa.Armv6m.name
    | None -> Alcotest.failf "decode16 failed for %s" name
  in
  d "movs_imm" 0x2001;   (* movs r0, #1 *)
  d "movs_reg" 0x0008;   (* movs r0, r1 *)
  d "lsls_imm" 0x0048;   (* lsls r0, r1, #1 *)
  d "adds_reg" 0x1888;   (* adds r0, r1, r2 *)
  d "muls" 0x4348;
  d "bx" 0x4708;
  d "push" 0xb510;
  d "pop" 0xbd10;
  d "b_cond" 0xd0fe;
  d "udf" 0xde00;
  d "svc" 0xdf00;
  d "b" 0xe7fe;
  d "nop" 0xbf00;
  check "bl first half is wide" true (Isa.Armv6m.is_wide 0xf000);
  check "movs not wide" false (Isa.Armv6m.is_wide 0x2001)

(* --- subsets ------------------------------------------------------------ *)

let test_subset_algebra () =
  let s = Isa.Subset.rv32i in
  check_int "rv32i size" 40 (Isa.Subset.size s);
  check_int "rv32imcz size" 81 (Isa.Subset.size Isa.Subset.rv32imcz);
  check_int "rv32imc size" 74 (Isa.Subset.size Isa.Subset.rv32imc);
  check_int "rv32im size" 48 (Isa.Subset.size Isa.Subset.rv32im);
  check_int "reduced addressing" 30
    (Isa.Subset.size Isa.Subset.rv32i_reduced_addressing);
  check_int "safety critical" 35 (Isa.Subset.size Isa.Subset.rv32i_safety_critical);
  check_int "no parallelism" 28 (Isa.Subset.size Isa.Subset.rv32i_no_parallelism);
  check_int "risc16" 9 (Isa.Subset.size Isa.Subset.risc16);
  check "mem" true (Isa.Subset.mem s "add");
  check "not mem" false (Isa.Subset.mem Isa.Subset.rv32i_reduced_addressing "add");
  check "unknown rejected" true
    (try ignore (Isa.Subset.make Isa.Subset.Riscv "x" [ "frobnicate" ]); false
     with Invalid_argument _ -> true);
  check "duplicate rejected" true
    (try ignore (Isa.Subset.make Isa.Subset.Riscv "x" [ "add"; "add" ]); false
     with Invalid_argument _ -> true);
  check "cross-arch rejected" true
    (try
       ignore (Isa.Subset.union "x" Isa.Subset.rv32i Isa.Subset.armv6m_full);
       false
     with Invalid_argument _ -> true)

(* --- workloads: Table I ------------------------------------------------- *)

let test_table1_riscv () =
  (* Paper Table I (Ibex): rows base/M/C/Zicsr, columns
     networking/security/automotive/all *)
  let expected =
    [ ("RV32i base", 18, 24, 28, 29);
      ("M-Extension", 2, 0, 3, 4);
      ("C-Extension", 13, 18, 19, 20);
      ("Zicsr-Extension", 0, 0, 0, 0) ]
  in
  List.iter2
    (fun (en, e1, e2, e3, e4) (gn, g1, g2, g3, g4) ->
      Alcotest.(check string) "row name" en gn;
      check_int (en ^ " networking") e1 g1;
      check_int (en ^ " security") e2 g2;
      check_int (en ^ " automotive") e3 g3;
      check_int (en ^ " all") e4 g4)
    expected Isa.Workloads.table1_riscv;
  check_int "networking total" 33 (Isa.Subset.size (Isa.Workloads.riscv Isa.Workloads.Networking));
  check_int "security total" 42 (Isa.Subset.size (Isa.Workloads.riscv Isa.Workloads.Security));
  check_int "automotive total" 50 (Isa.Subset.size (Isa.Workloads.riscv Isa.Workloads.Automotive));
  check_int "all total" 53 (Isa.Subset.size Isa.Workloads.riscv_all)

let test_table1_arm () =
  let net, sec, auto, total = Isa.Workloads.table1_arm in
  check_int "networking" 33 net;
  check_int "security" 40 sec;
  check_int "automotive" 48 auto;
  check_int "all" 50 total

let test_workloads_are_subsets () =
  List.iter
    (fun g ->
      let s = Isa.Workloads.riscv g in
      List.iter
        (fun nm -> check (nm ^ " known") true (Isa.Subset.mem Isa.Subset.rv32imcz nm))
        (Isa.Subset.instructions s))
    Isa.Workloads.groups

(* --- assembler ----------------------------------------------------------- *)

let test_asm_decodes_back () =
  let p = Isa.Asm.create () in
  Isa.Asm.label p "start";
  Isa.Asm.li p ~rd:1 1234;
  Isa.Asm.li p ~rd:2 (-5);
  Isa.Asm.add p ~rd:3 ~rs1:1 ~rs2:2;
  Isa.Asm.sub p ~rd:4 ~rs1:1 ~rs2:2;
  Isa.Asm.sw p ~rs2:3 ~rs1:0 16;
  Isa.Asm.lw p ~rd:5 ~rs1:0 16;
  Isa.Asm.beq p ~rs1:3 ~rs2:5 "start";
  Isa.Asm.jal p ~rd:1 "start";
  Isa.Asm.mul p ~rd:6 ~rs1:1 ~rs2:2;
  Isa.Asm.ecall p;
  let hw = Isa.Asm.assemble p in
  (* every 32-bit word must decode to a known instruction *)
  let i = ref 0 in
  while !i < Array.length hw do
    let w = hw.(!i) lor (if !i + 1 < Array.length hw then hw.(!i + 1) lsl 16 else 0) in
    if Isa.Rv32.is_compressed hw.(!i) then begin
      check "compressed decodes" true (Isa.Rv32.decode16 hw.(!i) <> None);
      incr i
    end
    else begin
      check "word decodes" true (Isa.Rv32.decode32 w <> None);
      i := !i + 2
    end
  done

let test_asm_branch_offsets () =
  let p = Isa.Asm.create () in
  Isa.Asm.nop p;
  Isa.Asm.label p "target";
  Isa.Asm.nop p;
  Isa.Asm.beq p ~rs1:0 ~rs2:0 "target";
  let hw = Isa.Asm.assemble p in
  let w = hw.(4) lor (hw.(5) lsl 16) in
  (* branch at byte 8 to byte 4: offset -4 *)
  (match Isa.Rv32.decode32 w with
  | Some i -> Alcotest.(check string) "beq" "beq" i.Isa.Rv32.name
  | None -> Alcotest.fail "undecodable branch");
  (* reconstruct the b-immediate *)
  let imm12 = (w lsr 31) land 1
  and imm10_5 = (w lsr 25) land 0x3F
  and imm4_1 = (w lsr 8) land 0xF
  and imm11 = (w lsr 7) land 1 in
  let imm =
    (imm12 lsl 12) lor (imm11 lsl 11) lor (imm10_5 lsl 5) lor (imm4_1 lsl 1)
  in
  let imm = if imm land 0x1000 <> 0 then imm - 0x2000 else imm in
  check_int "offset" (-4) imm

let test_asm_compressed_stream () =
  let p = Isa.Asm.create () in
  Isa.Asm.c_li p ~rd:1 7;
  Isa.Asm.c_nop p;
  Isa.Asm.addi p ~rd:2 ~rs1:1 1;
  let hw = Isa.Asm.assemble p in
  check_int "halfwords" 4 (Array.length hw);
  check "first is compressed" true (Isa.Rv32.is_compressed hw.(0));
  (match Isa.Rv32.decode16 hw.(0) with
  | Some i -> Alcotest.(check string) "c.li" "c.li" i.Isa.Rv32.name
  | None -> Alcotest.fail "c.li undecodable")

let test_asm_errors () =
  let p = Isa.Asm.create () in
  check "imm range" true
    (try Isa.Asm.addi p ~rd:1 ~rs1:0 5000; false with Failure _ -> true);
  check "bad reg" true
    (try Isa.Asm.addi p ~rd:32 ~rs1:0 0; false with Failure _ -> true);
  let p2 = Isa.Asm.create () in
  Isa.Asm.j p2 "nowhere";
  check "undefined label" true
    (try ignore (Isa.Asm.assemble p2); false with Failure _ -> true)

(* --- qcheck -------------------------------------------------------------- *)

let qcheck_subset_monitor_consistency =
  (* any random instance of a subset member matches some encoding of the
     subset — the property the environment monitor relies on *)
  QCheck.Test.make ~name:"subset instances match subset encodings" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let subset = Isa.Workloads.riscv_all in
      let instrs = Isa.Subset.instructions subset in
      let nm = List.nth instrs (Random.State.int rng (List.length instrs)) in
      let i = Isa.Rv32.find nm in
      let w = Isa.Encoding.random_instance rng i.Isa.Rv32.enc in
      List.exists
        (fun e ->
          e.Isa.Encoding.width = i.Isa.Rv32.enc.Isa.Encoding.width
          && Isa.Encoding.matches e w)
        (List.map (fun nm -> (Isa.Rv32.find nm).Isa.Rv32.enc) instrs))

let () =
  Alcotest.run "isa"
    [
      ( "encoding",
        [
          Alcotest.test_case "parse" `Quick test_encoding_parse;
          Alcotest.test_case "errors" `Quick test_encoding_errors;
          Alcotest.test_case "random instances" `Quick test_encoding_random_instance;
          Alcotest.test_case "overlap" `Quick test_encoding_overlap;
        ] );
      ( "rv32",
        [
          Alcotest.test_case "counts" `Quick test_rv32_counts;
          Alcotest.test_case "decode32" `Quick test_rv32_decode;
          Alcotest.test_case "decode16 priority" `Quick test_rv32_decode16_priority;
          Alcotest.test_case "decode closure" `Quick test_rv32_no_same_ext_ambiguity;
        ] );
      ( "armv6m",
        [
          Alcotest.test_case "counts" `Quick test_arm_counts;
          Alcotest.test_case "decode" `Quick test_arm_decode;
        ] );
      ("subset", [ Alcotest.test_case "algebra" `Quick test_subset_algebra ]);
      ( "workloads",
        [
          Alcotest.test_case "table1 riscv" `Quick test_table1_riscv;
          Alcotest.test_case "table1 arm" `Quick test_table1_arm;
          Alcotest.test_case "subset closure" `Quick test_workloads_are_subsets;
        ] );
      ( "asm",
        [
          Alcotest.test_case "decodes back" `Quick test_asm_decodes_back;
          Alcotest.test_case "branch offsets" `Quick test_asm_branch_offsets;
          Alcotest.test_case "compressed stream" `Quick test_asm_compressed_stream;
          Alcotest.test_case "errors" `Quick test_asm_errors;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest qcheck_subset_monitor_consistency ] );
    ]
