open Hdl.Ops
module Ctx = Hdl.Ctx
module Reg = Hdl.Reg
module Mem = Hdl.Mem

type config = {
  rob_entries : int;
  phys_regs : int;
  iq_entries : int;
  pht_entries : int;
  btb_entries : int;
}

let default_config =
  { rob_entries = 64; phys_regs = 96; iq_entries = 16; pht_entries = 256;
    btb_entries = 8 }

let fast_config =
  { rob_entries = 16; phys_regs = 48; iq_entries = 8; pht_entries = 64;
    btb_entries = 8 }

type t = {
  design : Netlist.Design.t;
  instr_port : string;
  config : config;
}

let bits_for n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 1

let is_pow2 n = n land (n - 1) = 0

(* read a register-array (our flush-restorable tables) at a dynamic index *)
let read_array regs idx =
  Hdl.Ops.mux idx (Array.to_list (Array.map Reg.q regs))

(* first set bit as (found, one-hot array); [mask_out] removes bits *)
let first_onehot c sigs =
  let n = Array.length sigs in
  let taken = ref (gnd c) in
  let oh =
    Array.init n (fun i ->
        let mine = sigs.(i) &: ~:(!taken) in
        taken := !taken |: sigs.(i);
        mine)
  in
  (!taken, oh)

let onehot_index c oh idx_bits =
  let cases =
    Array.to_list (Array.mapi (fun i s -> (s, const c ~width:idx_bits i)) oh)
  in
  one_hot_mux cases

let build ?(config = default_config) () =
  if not (is_pow2 config.rob_entries && is_pow2 config.pht_entries
          && is_pow2 config.btb_entries) then
    invalid_arg "Ridecore_like: rob/pht/btb sizes must be powers of two";
  let c = Ctx.create "ridecore_like" in
  let k w v = const c ~width:w v in
  let instr_rdata = Ctx.input c "instr_rdata" 64 in
  let data_rdata = Ctx.input c "data_rdata" 32 in

  let pbits = bits_for config.phys_regs in
  let rbits = bits_for config.rob_entries in
  let phtbits = bits_for config.pht_entries in
  let btbbits = bits_for config.btb_entries in

  (* ================== committed / speculative rename state ========== *)
  let crat = Array.init 32 (fun i -> Reg.create c ~init:i ~width:pbits (Printf.sprintf "crat_%d" i)) in
  let srat = Array.init 32 (fun i -> Reg.create c ~init:i ~width:pbits (Printf.sprintf "srat_%d" i)) in
  let cfree =
    Array.init config.phys_regs (fun i ->
        Reg.create c ~init:(if i >= 32 then 1 else 0) ~width:1
          (Printf.sprintf "cfree_%d" i))
  in
  let sfree =
    Array.init config.phys_regs (fun i ->
        Reg.create c ~init:(if i >= 32 then 1 else 0) ~width:1
          (Printf.sprintf "sfree_%d" i))
  in
  let busy =
    Array.init config.phys_regs (fun i ->
        Reg.create c ~init:0 ~width:1 (Printf.sprintf "busy_%d" i))
  in
  let prf = Mem.create c ~words:config.phys_regs ~width:32 "prf" in

  (* ================== ROB ============================================ *)
  let ne = config.rob_entries in
  let mkr ?(w = 1) nm = Array.init ne (fun i -> Reg.create c ~init:0 ~width:w (Printf.sprintf "rob_%s_%d" nm i)) in
  let rob_valid = mkr "valid" in
  let rob_done = mkr "done" in
  let rob_rd = mkr ~w:5 "rd" in
  let rob_prd = mkr ~w:pbits "prd" in
  let rob_oldprd = mkr ~w:pbits "oldprd" in
  let rob_isstore = mkr "isstore" in
  let rob_staddr = mkr ~w:32 "staddr" in
  let rob_stdata = mkr ~w:32 "stdata" in
  let rob_stbe = mkr ~w:4 "stbe" in
  let rob_isbranch = mkr "isbranch" in
  let rob_taken = mkr "taken" in
  let rob_mispred = mkr "mispred" in
  let rob_target = mkr ~w:32 "target" in
  let rob_pc = mkr ~w:32 "pc" in
  let head = Reg.create c ~init:0 ~width:rbits "rob_head" in
  let tail = Reg.create c ~init:0 ~width:rbits "rob_tail" in
  let count = Reg.create c ~init:0 ~width:(rbits + 1) "rob_count" in

  let rob_at regs idx = read_array regs idx in

  (* ================== commit ========================================= *)
  let h0 = Reg.q head in
  let h1 = Reg.q head +: k rbits 1 in
  let c0_valid = rob_at rob_valid h0 in
  let c0_done = rob_at rob_done h0 in
  let c0_commit = c0_valid &: c0_done in
  let c0_rd = rob_at rob_rd h0 in
  let c0_prd = rob_at rob_prd h0 in
  let c0_oldprd = rob_at rob_oldprd h0 in
  let c0_isstore = rob_at rob_isstore h0 in
  let c0_mispred = rob_at rob_mispred h0 in
  let c0_isbranch = rob_at rob_isbranch h0 in
  let c0_taken = rob_at rob_taken h0 in
  let c0_target = rob_at rob_target h0 in
  let c0_pc = rob_at rob_pc h0 in

  let c1_valid = rob_at rob_valid h1 in
  let c1_done = rob_at rob_done h1 in
  let c1_rd = rob_at rob_rd h1 in
  let c1_prd = rob_at rob_prd h1 in
  let c1_oldprd = rob_at rob_oldprd h1 in
  let c1_isstore = rob_at rob_isstore h1 in
  let c1_mispred = rob_at rob_mispred h1 in
  let c1_isbranch = rob_at rob_isbranch h1 in
  let c1_taken = rob_at rob_taken h1 in
  let c1_pc = rob_at rob_pc h1 in

  let commit0 = c0_commit in
  let flush = commit0 &: c0_mispred in
  let commit1 =
    commit0 &: ~:flush &: c1_valid &: c1_done &: ~:c1_mispred
    &: ~:(c0_isstore &: c1_isstore)
  in
  (* a mispredicted c1 commits alone next cycle *)
  let n_commit =
    zero_extend commit0 2 +: zero_extend commit1 2
  in
  let store_commit0 = commit0 &: c0_isstore in
  let store_commit1 = commit1 &: c1_isstore in
  let store_commit = store_commit0 |: store_commit1 in

  (* ================== fetch / branch prediction ====================== *)
  let pc = Reg.create c ~init:0 ~width:32 "pc" in
  let ghr = Reg.create c ~init:0 ~width:8 "ghr" in
  let pht =
    Array.init config.pht_entries (fun i ->
        Reg.create c ~init:1 ~width:2 (Printf.sprintf "pht_%d" i))
  in
  let btb_valid = Array.init config.btb_entries (fun i -> Reg.create c ~init:0 ~width:1 (Printf.sprintf "btbv_%d" i)) in
  let btb_tag = Array.init config.btb_entries (fun i -> Reg.create c ~init:0 ~width:27 (Printf.sprintf "btbt_%d" i)) in
  let btb_target = Array.init config.btb_entries (fun i -> Reg.create c ~init:0 ~width:32 (Printf.sprintf "btbx_%d" i)) in

  let pc0 = Reg.q pc in
  let pc1 = pc0 +: k 32 4 in
  let btb_idx p = bits p ~hi:(2 + btbbits - 1) ~lo:2 in
  let btb_tag_of p = bits p ~hi:31 ~lo:5 in
  let btb_lookup p =
    let idx = btb_idx p in
    let v = lsb (read_array btb_valid idx) in
    let tag = read_array btb_tag idx in
    let tgt = read_array btb_target idx in
    (v &: (tag ==: btb_tag_of p), tgt)
  in
  let pht_index p = bits p ~hi:(2 + phtbits - 1) ~lo:2 ^: uresize (Reg.q ghr) phtbits in
  let pht_taken p = msb (read_array pht (pht_index p)) in
  let hit0, tgt0 = btb_lookup pc0 in
  let hit1, tgt1 = btb_lookup pc1 in
  let pred0 = hit0 &: pht_taken pc0 in
  let pred1 = hit1 &: pht_taken pc1 in
  let fetch_next =
    mux2 pred0 (mux2 pred1 (pc0 +: k 32 8) tgt1) tgt0
  in
  let prednext0 = mux2 pred0 pc1 tgt0 in
  let prednext1 = mux2 pred1 (pc0 +: k 32 8) tgt1 in

  (* fetch/dispatch pipeline registers *)
  let fd_valid0 = Reg.create c ~init:0 ~width:1 "fd_valid0" in
  let fd_valid1 = Reg.create c ~init:0 ~width:1 "fd_valid1" in
  let fd_pc = Reg.create c ~width:32 "fd_pc" in
  let fd_instr0 = Reg.create c ~width:32 "fd_instr0" in
  let fd_instr1 = Reg.create c ~width:32 "fd_instr1" in
  let fd_prednext0 = Reg.create c ~width:32 "fd_prednext0" in
  let fd_prednext1 = Reg.create c ~width:32 "fd_prednext1" in

  (* ================== decode ========================================= *)
  let i0 = Reg.q fd_instr0 in
  let i1 = Reg.q fd_instr1 in
  let d0 = Rv_util.decode i0 in
  let d1 = Rv_util.decode i1 in
  let dec_alu (d : Rv_util.decoded) =
    d.Rv_util.is_alu_imm |: d.Rv_util.is_alu_reg |: d.Rv_util.is_lui
    |: d.Rv_util.is_auipc
  in
  let dec_br (d : Rv_util.decoded) =
    d.Rv_util.is_branch |: d.Rv_util.is_jal |: d.Rv_util.is_jalr
  in
  let dec_nop (d : Rv_util.decoded) =
    d.Rv_util.is_div |: d.Rv_util.is_fence |: d.Rv_util.is_ecall
    |: d.Rv_util.is_ebreak |: d.Rv_util.is_csr |: d.Rv_util.illegal
  in
  let is_nop0 = dec_nop d0 in
  let is_nop1 = dec_nop d1 in
  let needs_iq0 = Reg.q fd_valid0 &: ~:is_nop0 in
  let needs_iq1 = Reg.q fd_valid1 &: ~:is_nop1 in
  let writes_rd (d : Rv_util.decoded) instr =
    (d.Rv_util.is_alu_imm |: d.Rv_util.is_alu_reg |: d.Rv_util.is_lui
     |: d.Rv_util.is_auipc |: d.Rv_util.is_load |: d.Rv_util.is_mul
     |: d.Rv_util.is_jal |: d.Rv_util.is_jalr)
    &: (Rv_util.rd instr <>: k 5 0)
  in
  let wr0 = Reg.q fd_valid0 &: writes_rd d0 i0 in
  let wr1 = Reg.q fd_valid1 &: writes_rd d1 i1 in

  (* ================== rename ========================================= *)
  let sfree_bits = Array.map Reg.q sfree in
  let free_found0, free_oh0 = first_onehot c (Array.map lsb sfree_bits) in
  let masked = Array.mapi (fun i s -> lsb s &: ~:(free_oh0.(i))) sfree_bits in
  let free_found1, free_oh1 = first_onehot c masked in
  let newp0 = onehot_index c free_oh0 pbits in
  let newp1 = onehot_index c free_oh1 pbits in

  let rat_read idx = read_array srat idx in
  let rs1_0 = Rv_util.rs1 i0 and rs2_0 = Rv_util.rs2 i0 and rd_0 = Rv_util.rd i0 in
  let rs1_1 = Rv_util.rs1 i1 and rs2_1 = Rv_util.rs2 i1 and rd_1 = Rv_util.rd i1 in
  let prs1_0 = rat_read rs1_0 in
  let prs2_0 = rat_read rs2_0 in
  let oldp0 = rat_read rd_0 in
  (* slot1 sees slot0's rename *)
  let fwd rs v = mux2 (wr0 &: (rs ==: rd_0)) v newp0 in
  let prs1_1 = fwd rs1_1 (rat_read rs1_1) in
  let prs2_1 = fwd rs2_1 (rat_read rs2_1) in
  let oldp1 = fwd rd_1 (rat_read rd_1) in

  (* resource check (all-or-nothing dispatch of the valid slots) *)
  let iq_valid = Array.init config.iq_entries (fun i -> Reg.create c ~init:0 ~width:1 (Printf.sprintf "iq_valid_%d" i)) in
  let iq_free = Array.map (fun r -> ~:(Reg.q r)) iq_valid in
  let iqf_found0, iqf_oh0 = first_onehot c iq_free in
  let iq_free2 = Array.mapi (fun i s -> s &: ~:(iqf_oh0.(i))) iq_free in
  let iqf_found1, iqf_oh1 = first_onehot c iq_free2 in

  let need_regs = zero_extend wr0 2 +: zero_extend wr1 2 in
  let regs_ok =
    mux2 (eq_const need_regs 2) (mux2 (eq_const need_regs 1) (vdd c) free_found0)
      (free_found0 &: free_found1)
  in
  let need_iq = zero_extend needs_iq0 2 +: zero_extend needs_iq1 2 in
  let iq_ok =
    mux2 (eq_const need_iq 2) (mux2 (eq_const need_iq 1) (vdd c) iqf_found0)
      (iqf_found0 &: iqf_found1)
  in
  let n_disp = zero_extend (Reg.q fd_valid0) 2 +: zero_extend (Reg.q fd_valid1) 2 in
  let rob_room =
    (zero_extend (Reg.q count) (rbits + 2) +: zero_extend n_disp (rbits + 2))
    <=: k (rbits + 2) ne
  in
  let have_work = Reg.q fd_valid0 |: Reg.q fd_valid1 in
  let dispatch = have_work &: regs_ok &: iq_ok &: rob_room &: ~:flush in
  let disp0 = dispatch &: Reg.q fd_valid0 in
  let disp1 = dispatch &: Reg.q fd_valid1 in

  (* ================== issue queue ==================================== *)
  let nq = config.iq_entries in
  let mkq ?(w = 1) nm = Array.init nq (fun i -> Reg.create c ~init:0 ~width:w (Printf.sprintf "iq_%s_%d" nm i)) in
  (* class bits are stored one-hot: the "never inserted" invariant of
     each bit is then 1-step inductive under an ISA restriction, which
     is what lets PDAT freeze a whole functional unit *)
  let iq_isalu = mkq "isalu" in
  let iq_isbr = mkq "isbr" in
  let iq_isload = mkq "isload" in
  let iq_isstore = mkq "isstore" in
  let iq_ismul = mkq "ismul" in
  let iq_f3 = mkq ~w:3 "f3" in
  let iq_alt = mkq "alt" in
  let iq_jal = mkq "jal" in
  let iq_jalr = mkq "jalr" in
  let iq_lui = mkq "lui" in
  let iq_auipc = mkq "auipc" in
  let iq_useimm = mkq "useimm" in
  let iq_imm = mkq ~w:32 "imm" in
  let iq_pc = mkq ~w:32 "pc" in
  let iq_prednext = mkq ~w:32 "prednext" in
  let iq_prs1 = mkq ~w:pbits "prs1" in
  let iq_prs2 = mkq ~w:pbits "prs2" in
  let iq_r1rdy = mkq "r1rdy" in
  let iq_r2rdy = mkq "r2rdy" in
  let iq_prd = mkq ~w:pbits "prd" in
  let iq_wr = mkq "wr" in
  let iq_rob = mkq ~w:rbits "rob" in

  (* immediate and control extraction per slot *)
  let imm_of instr (d : Rv_util.decoded) =
    one_hot_mux
      [ (d.Rv_util.is_alu_imm |: d.Rv_util.is_load |: d.Rv_util.is_jalr,
         Rv_util.imm_i instr);
        (d.Rv_util.is_store, Rv_util.imm_s instr);
        (d.Rv_util.is_branch, Rv_util.imm_b instr);
        (d.Rv_util.is_lui |: d.Rv_util.is_auipc, Rv_util.imm_u instr);
        (d.Rv_util.is_jal, Rv_util.imm_j instr) ]
  in
  let useimm_of (d : Rv_util.decoded) =
    d.Rv_util.is_alu_imm |: d.Rv_util.is_load |: d.Rv_util.is_store
    |: d.Rv_util.is_jalr |: d.Rv_util.is_lui |: d.Rv_util.is_auipc
  in

  (* ================== execute (issue + ALU + CDB) ===================== *)
  (* multiplier state *)
  let mul_busy = Reg.create c ~init:0 ~width:1 "mul_busy" in
  let mul_count = Reg.create c ~init:0 ~width:6 "mul_count" in
  let mul_areg = Reg.create c ~init:0 ~width:64 "mul_areg" in
  let mul_breg = Reg.create c ~init:0 ~width:32 "mul_breg" in
  let mul_acc = Reg.create c ~init:0 ~width:64 "mul_acc" in
  let mul_signdiff = Reg.create c ~init:0 ~width:1 "mul_signdiff" in
  let mul_f3 = Reg.create c ~init:0 ~width:3 "mul_f3" in
  let mul_prd = Reg.create c ~init:0 ~width:pbits "mul_prd" in
  let mul_rob = Reg.create c ~init:0 ~width:rbits "mul_rob" in
  let mul_done = Reg.q mul_busy &: eq_const (Reg.q mul_count) 0 in
  let mul_iter = Reg.q mul_busy &: ~:mul_done in

  (* ready vector; loads are held while an *older* store is still in
     the ROB (its memory write only happens at commit), using
     head-relative ages so the circular indices compare correctly *)
  let store_flag =
    Array.mapi (fun j v -> Reg.q v &: Reg.q rob_isstore.(j)) rob_valid
  in
  let rob_age = Array.init ne (fun j -> k rbits j -: Reg.q head) in
  let ready =
    Array.init nq (fun i ->
        let my_age = Reg.q iq_rob.(i) -: Reg.q head in
        let older_store =
          Array.to_list store_flag
          |> List.mapi (fun j s -> s &: (rob_age.(j) <: my_age))
          |> List.fold_left ( |: ) (gnd c)
        in
        Reg.q iq_valid.(i) &: Reg.q iq_r1rdy.(i) &: Reg.q iq_r2rdy.(i)
        &: ~:(Reg.q iq_isload.(i) &: (older_store |: store_commit))
        &: ~:(Reg.q iq_ismul.(i) &: (Reg.q mul_busy |: mul_done))
        (* CDB is taken by the multiplier on its completion cycle *)
        &: ~:mul_done)
  in
  let issue_any, issue_oh = first_onehot c ready in
  let sel regs = one_hot_mux (Array.to_list (Array.mapi (fun i r -> (issue_oh.(i), Reg.q r)) regs)) in
  let x_isalu = lsb (sel iq_isalu) in
  let x_isbr = lsb (sel iq_isbr) in
  let x_isload = lsb (sel iq_isload) in
  let x_isstore = lsb (sel iq_isstore) in
  let x_ismul = lsb (sel iq_ismul) in
  let x_f3 = sel iq_f3 in
  let x_alt = lsb (sel iq_alt) in
  let x_jal = lsb (sel iq_jal) in
  let x_jalr = lsb (sel iq_jalr) in
  let x_lui = lsb (sel iq_lui) in
  let x_auipc = lsb (sel iq_auipc) in
  let x_useimm = lsb (sel iq_useimm) in
  let x_imm = sel iq_imm in
  let x_pc = sel iq_pc in
  let x_prednext = sel iq_prednext in
  let x_prs1 = sel iq_prs1 in
  let x_prs2 = sel iq_prs2 in
  let x_prd = sel iq_prd in
  let x_wr = lsb (sel iq_wr) in
  let x_rob = sel iq_rob in

  let issue = issue_any in
  let rv1 = Mem.read prf x_prs1 in
  let rv2 = Mem.read prf x_prs2 in
  let op_a = rv1 in
  let op_b = mux2 x_useimm rv2 x_imm in

  (* shared ALU *)
  let sum = mux2 x_alt (op_a +: op_b) (op_a -: op_b) in
  let shamt = bits op_b ~hi:4 ~lo:0 in
  let alu_out =
    mux x_f3
      [ sum; sll op_a shamt; zero_extend (slt op_a op_b) 32;
        zero_extend (op_a <: op_b) 32; op_a ^: op_b;
        mux2 x_alt (srl op_a shamt) (sra op_a shamt); op_a |: op_b;
        op_a &: op_b ]
  in
  let alu_result =
    one_hot_mux
      [ (x_lui, x_imm); (x_auipc, x_pc +: x_imm);
        (~:x_lui &: ~:x_auipc, alu_out) ]
  in

  (* branches *)
  let br_eq = rv1 ==: rv2 in
  let br_lt = slt rv1 rv2 in
  let br_ltu = rv1 <: rv2 in
  let br_cond =
    mux x_f3 [ br_eq; ~:br_eq; br_eq; br_eq; br_lt; ~:br_lt; br_ltu; ~:br_ltu ]
  in
  let br_taken = x_jal |: x_jalr |: br_cond in
  let br_target =
    mux2 x_jalr (x_pc +: x_imm)
      (concat [ bits (rv1 +: x_imm) ~hi:31 ~lo:2; zero c 2 ])
  in
  let actual_next = mux2 br_taken (x_pc +: k 32 4) br_target in
  let mispredict = x_isbr &: (actual_next <>: x_prednext) in
  let link = x_pc +: k 32 4 in

  (* memory *)
  let mem_addr_x = rv1 +: x_imm in
  let addr_lo = bits mem_addr_x ~hi:1 ~lo:0 in
  let byte_shift = mux addr_lo [ k 5 0; k 5 8; k 5 16; k 5 24 ] in
  let load_shifted = srl data_rdata byte_shift in
  let load_val =
    mux x_f3
      [ sign_extend (bits load_shifted ~hi:7 ~lo:0) 32;
        sign_extend (bits load_shifted ~hi:15 ~lo:0) 32;
        load_shifted; load_shifted;
        zero_extend (bits load_shifted ~hi:7 ~lo:0) 32;
        zero_extend (bits load_shifted ~hi:15 ~lo:0) 32 ]
  in
  let store_data_sh = sll rv2 byte_shift in
  let store_be =
    sll
      (mux (bits x_f3 ~hi:1 ~lo:0) [ k 4 1; k 4 3; k 4 15 ])
      (zero_extend addr_lo 2)
  in

  let is_load_x = x_isload in
  let is_store_x = x_isstore in
  let is_mul_x = x_ismul in
  let issue_mul = issue &: is_mul_x in

  (* multiplier operand capture (same scheme as the Ibex-like core) *)
  let m_asigned = eq_const x_f3 0b001 |: eq_const x_f3 0b010 in
  let m_bsigned = eq_const x_f3 0b001 in
  let a_neg = (m_asigned &: msb rv1) &: issue_mul in
  let b_neg = (m_bsigned &: msb rv2) &: issue_mul in
  let a_mag = mux2 a_neg rv1 (negate rv1) in
  let b_mag = mux2 b_neg rv2 (negate rv2) in
  Reg.connect mul_busy (mux2 issue_mul (Reg.q mul_busy &: ~:mul_done) (vdd c));
  Reg.connect mul_count
    (mux2 issue_mul
       (mux2 (Reg.q mul_busy) (Reg.q mul_count) (Reg.q mul_count -: k 6 1))
       (k 6 32));
  Reg.connect mul_areg
    (mux2 issue_mul
       (mux2 mul_iter (Reg.q mul_areg) (sll_const (Reg.q mul_areg) 1))
       (zero_extend a_mag 64));
  Reg.connect mul_breg
    (mux2 issue_mul
       (mux2 mul_iter (Reg.q mul_breg) (srl_const (Reg.q mul_breg) 1))
       b_mag);
  Reg.connect mul_acc
    (mux2 issue_mul
       (mux2 mul_iter (Reg.q mul_acc)
          (Reg.q mul_acc +: (Reg.q mul_areg &: repeat (lsb (Reg.q mul_breg)) 64)))
       (zero c 64));
  Reg.connect_en mul_signdiff ~en:issue_mul (a_neg ^: b_neg);
  Reg.connect_en mul_f3 ~en:issue_mul x_f3;
  Reg.connect_en mul_prd ~en:issue_mul x_prd;
  Reg.connect_en mul_rob ~en:issue_mul x_rob;
  let mul_product =
    mux2 (Reg.q mul_signdiff) (Reg.q mul_acc) (negate (Reg.q mul_acc))
  in
  let mul_result =
    mux2 (eq_const (Reg.q mul_f3) 0)
      (bits mul_product ~hi:63 ~lo:32)
      (bits mul_product ~hi:31 ~lo:0)
  in

  (* CDB: a mul broadcasts when its unit completes, not at issue *)
  let issue_writes = issue &: x_wr &: ~:is_mul_x in
  let cdb_valid = mul_done |: issue_writes in
  let cdb_prd = mux2 mul_done x_prd (Reg.q mul_prd) in
  let cdb_value =
    mux2 mul_done
      (one_hot_mux
         [ (x_isalu, alu_result); (is_load_x, load_val); (x_isbr, link) ])
      mul_result
  in
  Mem.write prf ~en:cdb_valid ~addr:cdb_prd ~data:cdb_value;

  (* ================== ROB updates ===================================== *)
  let t0 = Reg.q tail in
  let t1 = Reg.q tail +: k rbits 1 in
  (* a mul completes when its unit finishes, not when it issues *)
  let exec_rob = mux2 mul_done x_rob (Reg.q mul_rob) in
  let exec_done = (issue &: ~:is_mul_x) |: mul_done in
  (* per-entry next-state: dispatch fills, execution completes, commit
     and flush clear *)
  for i = 0 to ne - 1 do
    let is_d0 = disp0 &: (t0 ==: k rbits i) in
    let is_d1 = disp1 &: (t1 ==: k rbits i) in
    let is_exec = exec_done &: (exec_rob ==: k rbits i) in
    let is_c0 = commit0 &: (h0 ==: k rbits i) in
    let is_c1 = commit1 &: (h1 ==: k rbits i) in
    let dsp = is_d0 |: is_d1 in
    let pick a b = mux2 is_d1 a b in
    Reg.connect rob_valid.(i)
      (mux2 flush
         (mux2 dsp (mux2 (is_c0 |: is_c1) (Reg.q rob_valid.(i)) (gnd c)) (vdd c))
         (gnd c));
    let d_instr = pick i0 i1 in
    let d_dec_nop = pick is_nop0 is_nop1 in
    let d_isstore = pick d0.Rv_util.is_store d1.Rv_util.is_store in
    let d_isbranch = pick (dec_br d0) (dec_br d1) in
    let d_wr = pick wr0 wr1 in
    let d_prd = pick newp0 newp1 in
    let d_oldp = pick oldp0 oldp1 in
    let d_pc = pick (Reg.q fd_pc) (Reg.q fd_pc +: k 32 4) in
    (* nops retire immediately; everything else completes at execute *)
    Reg.connect_en rob_done.(i) ~en:(dsp |: is_exec) (mux2 dsp (vdd c) d_dec_nop);
    Reg.connect_en rob_rd.(i) ~en:dsp (mux2 d_wr (k 5 0) (Rv_util.rd d_instr));
    Reg.connect_en rob_prd.(i) ~en:dsp d_prd;
    Reg.connect_en rob_oldprd.(i) ~en:dsp d_oldp;
    Reg.connect_en rob_isstore.(i) ~en:dsp d_isstore;
    Reg.connect_en rob_isbranch.(i) ~en:dsp d_isbranch;
    Reg.connect_en rob_pc.(i) ~en:dsp d_pc;
    let exec_here = issue &: (x_rob ==: k rbits i) in
    let exec_br = exec_here &: x_isbr in
    Reg.connect_en rob_staddr.(i) ~en:(exec_here &: is_store_x) mem_addr_x;
    Reg.connect_en rob_stdata.(i) ~en:(exec_here &: is_store_x) store_data_sh;
    Reg.connect_en rob_stbe.(i) ~en:(exec_here &: is_store_x) store_be;
    Reg.connect_en rob_taken.(i) ~en:(dsp |: exec_br) (mux2 dsp br_taken (gnd c));
    (* stale speculation state must be cleared when the slot is refilled *)
    Reg.connect_en rob_mispred.(i) ~en:(dsp |: exec_br) (mux2 dsp mispredict (gnd c));
    Reg.connect_en rob_target.(i) ~en:(dsp |: exec_br) (mux2 dsp actual_next d_pc)
  done;
  Reg.connect head
    (mux2 flush (Reg.q head +: uresize n_commit rbits) (Reg.q head +: k rbits 1));
  Reg.connect tail
    (mux2 flush
       (mux2 dispatch (Reg.q tail) (Reg.q tail +: uresize n_disp rbits))
       (Reg.q head +: k rbits 1));
  Reg.connect count
    (mux2 flush
       (Reg.q count
        +: uresize (mux2 dispatch (zero c 2) n_disp) (rbits + 1)
        -: uresize n_commit (rbits + 1))
       (zero c (rbits + 1)));

  (* ================== IQ updates ====================================== *)
  let cdb_wake p = cdb_valid &: (cdb_prd ==: p) in
  let src_ready p =
    (* ready if not busy, or being broadcast right now *)
    ~:(lsb (read_array busy p)) |: cdb_wake p
  in
  for i = 0 to nq - 1 do
    let ins0 = disp0 &: needs_iq0 &: iqf_oh0.(i) in
    let ins1 = disp1 &: needs_iq1 &: (mux2 needs_iq0 iqf_oh0.(i) iqf_oh1.(i)) in
    let ins = ins0 |: ins1 in
    let issue_here = issue &: issue_oh.(i) in
    Reg.connect iq_valid.(i)
      (mux2 flush
         (mux2 ins (mux2 issue_here (Reg.q iq_valid.(i)) (gnd c)) (vdd c))
         (gnd c));
    let pick a b = mux2 ins1 a b in
    let instr = pick i0 i1 in
    Reg.connect_en iq_isalu.(i) ~en:ins (pick (dec_alu d0) (dec_alu d1));
    Reg.connect_en iq_isbr.(i) ~en:ins (pick (dec_br d0) (dec_br d1));
    Reg.connect_en iq_isload.(i) ~en:ins
      (pick d0.Rv_util.is_load d1.Rv_util.is_load);
    Reg.connect_en iq_isstore.(i) ~en:ins
      (pick d0.Rv_util.is_store d1.Rv_util.is_store);
    Reg.connect_en iq_ismul.(i) ~en:ins (pick d0.Rv_util.is_mul d1.Rv_util.is_mul);
    Reg.connect_en iq_f3.(i) ~en:ins (Rv_util.funct3 instr);
    Reg.connect_en iq_alt.(i) ~en:ins
      (pick
         (lsb ((d0.Rv_util.is_alu_reg &: eq_const (Rv_util.funct7 i0) 0b0100000)
               |: (d0.Rv_util.is_alu_imm &: eq_const (Rv_util.funct3 i0) 0b101
                   &: bit i0 30)))
         (lsb ((d1.Rv_util.is_alu_reg &: eq_const (Rv_util.funct7 i1) 0b0100000)
               |: (d1.Rv_util.is_alu_imm &: eq_const (Rv_util.funct3 i1) 0b101
                   &: bit i1 30))));
    Reg.connect_en iq_jal.(i) ~en:ins (pick d0.Rv_util.is_jal d1.Rv_util.is_jal);
    Reg.connect_en iq_jalr.(i) ~en:ins (pick d0.Rv_util.is_jalr d1.Rv_util.is_jalr);
    Reg.connect_en iq_lui.(i) ~en:ins (pick d0.Rv_util.is_lui d1.Rv_util.is_lui);
    Reg.connect_en iq_auipc.(i) ~en:ins (pick d0.Rv_util.is_auipc d1.Rv_util.is_auipc);
    Reg.connect_en iq_useimm.(i) ~en:ins (pick (useimm_of d0) (useimm_of d1));
    Reg.connect_en iq_imm.(i) ~en:ins (pick (imm_of i0 d0) (imm_of i1 d1));
    Reg.connect_en iq_pc.(i) ~en:ins
      (pick (Reg.q fd_pc) (Reg.q fd_pc +: k 32 4));
    Reg.connect_en iq_prednext.(i) ~en:ins
      (pick (Reg.q fd_prednext0) (Reg.q fd_prednext1));
    let prs1_sel = pick prs1_0 prs1_1 in
    let prs2_sel = pick prs2_0 prs2_1 in
    Reg.connect_en iq_prs1.(i) ~en:ins prs1_sel;
    Reg.connect_en iq_prs2.(i) ~en:ins prs2_sel;
    (* operands that the instruction does not actually read are born
       ready; slot1 sources produced by slot0 this cycle are busy *)
    let uses_rs1 (d : Rv_util.decoded) =
      d.Rv_util.is_alu_imm |: d.Rv_util.is_alu_reg |: d.Rv_util.is_load
      |: d.Rv_util.is_store |: d.Rv_util.is_branch |: d.Rv_util.is_jalr
      |: d.Rv_util.is_mul
    in
    let uses_rs2 (d : Rv_util.decoded) =
      d.Rv_util.is_alu_reg |: d.Rv_util.is_store |: d.Rv_util.is_branch
      |: d.Rv_util.is_mul
    in
    let src_at_insert ~used ~dep_on_slot0 prs =
      ~:used |: (used &: ~:dep_on_slot0 &: src_ready prs)
    in
    let r1_at_insert =
      mux2 ins1
        (src_at_insert ~used:(uses_rs1 d0) ~dep_on_slot0:(gnd c) prs1_0)
        (src_at_insert ~used:(uses_rs1 d1)
           ~dep_on_slot0:(wr0 &: (rs1_1 ==: rd_0)) prs1_1)
    in
    let r2_at_insert =
      mux2 ins1
        (src_at_insert ~used:(uses_rs2 d0) ~dep_on_slot0:(gnd c) prs2_0)
        (src_at_insert ~used:(uses_rs2 d1)
           ~dep_on_slot0:(wr0 &: (rs2_1 ==: rd_0)) prs2_1)
    in
    Reg.connect iq_r1rdy.(i)
      (mux2 ins
         (Reg.q iq_r1rdy.(i) |: cdb_wake (Reg.q iq_prs1.(i)))
         r1_at_insert);
    Reg.connect iq_r2rdy.(i)
      (mux2 ins
         (Reg.q iq_r2rdy.(i) |: cdb_wake (Reg.q iq_prs2.(i)))
         r2_at_insert);
    Reg.connect_en iq_prd.(i) ~en:ins (pick newp0 newp1);
    Reg.connect_en iq_wr.(i) ~en:ins (pick wr0 wr1);
    Reg.connect_en iq_rob.(i) ~en:ins (pick t0 t1)
  done;

  (* ================== rename state updates ============================ *)
  for r = 0 to 31 do
    let ri = k 5 r in
    let w0 = disp0 &: wr0 &: (rd_0 ==: ri) in
    let w1 = disp1 &: wr1 &: (rd_1 ==: ri) in
    let srat_next =
      mux2 w1 (mux2 w0 (Reg.q srat.(r)) newp0) newp1
    in
    (* on flush, restore from the committed map including this cycle's
       commits *)
    let cw0 = commit0 &: (c0_rd ==: ri) &: (c0_rd <>: k 5 0) in
    let cw1 = commit1 &: (c1_rd ==: ri) &: (c1_rd <>: k 5 0) in
    let crat_next =
      mux2 cw1 (mux2 cw0 (Reg.q crat.(r)) c0_prd) c1_prd
    in
    Reg.connect crat.(r) crat_next;
    Reg.connect srat.(r) (mux2 flush srat_next crat_next)
  done;
  for p = 0 to config.phys_regs - 1 do
    let pi = k pbits p in
    let alloc0 = disp0 &: wr0 &: (newp0 ==: pi) in
    let alloc1 = disp1 &: wr1 &: (newp1 ==: pi) in
    let freed0 = commit0 &: (c0_rd <>: k 5 0) &: (c0_oldprd ==: pi) in
    let freed1 = commit1 &: (c1_rd <>: k 5 0) &: (c1_oldprd ==: pi) in
    let cheld0 = commit0 &: (c0_rd <>: k 5 0) &: (c0_prd ==: pi) in
    let cheld1 = commit1 &: (c1_rd <>: k 5 0) &: (c1_prd ==: pi) in
    let cfree_next =
      mux2 (cheld0 |: cheld1) (mux2 (freed0 |: freed1) (Reg.q cfree.(p)) (vdd c))
        (gnd c)
    in
    Reg.connect cfree.(p) cfree_next;
    let sfree_next =
      mux2 (alloc0 |: alloc1)
        (mux2 (freed0 |: freed1) (Reg.q sfree.(p)) (vdd c))
        (gnd c)
    in
    Reg.connect sfree.(p) (mux2 flush sfree_next cfree_next);
    let set_busy = alloc0 |: alloc1 in
    let clr_busy = cdb_valid &: (cdb_prd ==: pi) in
    Reg.connect busy.(p)
      (mux2 flush
         (mux2 set_busy (mux2 clr_busy (Reg.q busy.(p)) (gnd c)) (vdd c))
         (gnd c))
  done;

  (* ================== predictor updates =============================== *)
  let upd_br0 = commit0 &: c0_isbranch in
  let upd_br1 = commit1 &: c1_isbranch in
  (* one predictor update per cycle: the first committing branch *)
  let upd_en = upd_br0 |: upd_br1 in
  let upd_pc = mux2 upd_br0 c1_pc c0_pc in
  let upd_taken = lsb (mux2 upd_br0 c1_taken c0_taken) in
  let upd_target = mux2 upd_br0 (rob_at rob_target h1) c0_target in
  Reg.connect_en ghr ~en:upd_en
    (concat [ bits (Reg.q ghr) ~hi:6 ~lo:0; upd_taken ]);
  let upd_pht_idx =
    bits upd_pc ~hi:(2 + phtbits - 1) ~lo:2 ^: uresize (Reg.q ghr) phtbits
  in
  Array.iteri
    (fun i r ->
      let here = upd_en &: (upd_pht_idx ==: k phtbits i) in
      let cur = Reg.q r in
      let inc = mux2 (cur ==: k 2 3) (cur +: k 2 1) cur in
      let dec = mux2 (cur ==: k 2 0) (cur -: k 2 1) cur in
      Reg.connect_en r ~en:here (mux2 upd_taken dec inc))
    pht;
  Array.iteri
    (fun i _ ->
      let here = upd_en &: (btb_idx upd_pc ==: k btbbits i) in
      Reg.connect_en btb_valid.(i) ~en:here upd_taken;
      Reg.connect_en btb_tag.(i) ~en:(here &: upd_taken) (btb_tag_of upd_pc);
      Reg.connect_en btb_target.(i) ~en:(here &: upd_taken) upd_target)
    btb_valid;

  (* ================== fetch advance ==================================== *)
  let fetch_stall = have_work &: ~:dispatch in
  Reg.connect pc
    (mux2 flush (mux2 fetch_stall fetch_next (Reg.q pc)) c0_target);
  Reg.connect fd_valid0
    (mux2 flush (mux2 fetch_stall (vdd c) (Reg.q fd_valid0)) (gnd c));
  Reg.connect fd_valid1
    (mux2 flush (mux2 fetch_stall (~:pred0) (Reg.q fd_valid1)) (gnd c));
  Reg.connect fd_pc (mux2 fetch_stall pc0 (Reg.q fd_pc));
  Reg.connect fd_instr0
    (mux2 fetch_stall (bits instr_rdata ~hi:31 ~lo:0) (Reg.q fd_instr0));
  Reg.connect fd_instr1
    (mux2 fetch_stall (bits instr_rdata ~hi:63 ~lo:32) (Reg.q fd_instr1));
  Reg.connect fd_prednext0 (mux2 fetch_stall prednext0 (Reg.q fd_prednext0));
  Reg.connect fd_prednext1 (mux2 fetch_stall prednext1 (Reg.q fd_prednext1));

  (* ================== memory port ====================================== *)
  let st_addr = mux2 store_commit1 (rob_at rob_staddr h0) (rob_at rob_staddr h1) in
  let st_data = mux2 store_commit1 (rob_at rob_stdata h0) (rob_at rob_stdata h1) in
  let st_be = mux2 store_commit1 (rob_at rob_stbe h0) (rob_at rob_stbe h1) in
  let load_issuing = issue &: is_load_x in
  Ctx.output c "instr_addr" (concat [ bits (Reg.q pc) ~hi:31 ~lo:2; zero c 2 ]);
  Ctx.output c "data_addr" (mux2 store_commit mem_addr_x st_addr);
  Ctx.output c "data_wdata" st_data;
  Ctx.output c "data_we" store_commit;
  Ctx.output c "data_be" st_be;
  Ctx.output c "data_req" (store_commit |: load_issuing);
  Ctx.output c "retire" (lsb commit0);
  Ctx.output c "retire2" (lsb commit1);

  { design = Ctx.finish c; instr_port = "instr_rdata"; config }

let resolve_bus design base width =
  Array.init width (fun i ->
      let nm = Printf.sprintf "%s[%d]" base i in
      let found = ref (-1) in
      for n = 0 to Netlist.Design.num_nets design - 1 do
        if !found < 0 && Netlist.Design.net_name design n = nm then found := n
      done;
      if !found < 0 then failwith ("Ridecore_like: no net named " ^ nm);
      !found)

let peek_crat_nets t k =
  if k < 0 || k > 31 then invalid_arg "Ridecore_like.peek_crat_nets";
  resolve_bus t.design (Printf.sprintf "crat_%d" k) (bits_for t.config.phys_regs)

let peek_prf_nets t p =
  if p < 0 || p >= t.config.phys_regs then
    invalid_arg "Ridecore_like.peek_prf_nets";
  resolve_bus t.design (Printf.sprintf "prf_%d" p) 32
