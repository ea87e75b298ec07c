type item = {
  size : int;
  emit : pc:int -> resolve:(string -> int) -> int;
}

type t = {
  base : int;
  mutable items : item list;
  mutable pc : int;
  labels : (string, int) Hashtbl.t;
}

let create ?(base = 0) () =
  { base; items = []; pc = base; labels = Hashtbl.create 16 }

let label t name =
  if Hashtbl.mem t.labels name then failwith ("Asm_thumb.label: duplicate " ^ name);
  Hashtbl.replace t.labels name t.pc

let here t = t.pc

let push_item t size emit =
  t.items <- { size; emit } :: t.items;
  t.pc <- t.pc + size

let fixed t word = push_item t 2 (fun ~pc:_ ~resolve:_ -> word land 0xFFFF)
let raw16 = fixed

let lo3 what r =
  if r < 0 || r > 7 then failwith (Printf.sprintf "Asm_thumb: %s needs a low register, got r%d" what r)

let reg4 what r =
  if r < 0 || r > 15 then failwith (Printf.sprintf "Asm_thumb: bad register r%d in %s" r what)

let check what lo hi v =
  if v < lo || v > hi then
    failwith (Printf.sprintf "Asm_thumb: %s immediate %d out of range" what v)

(* --- moves / arithmetic ------------------------------------------------ *)

let movs t ~rd imm =
  lo3 "movs" rd; check "movs" 0 255 imm;
  fixed t ((0b00100 lsl 11) lor (rd lsl 8) lor imm)

let mov_reg t ~rd ~rm =
  reg4 "mov" rd; reg4 "mov" rm;
  fixed t ((0b01000110 lsl 8) lor (((rd lsr 3) land 1) lsl 7) lor (rm lsl 3) lor (rd land 7))

let addsub3 op t ~rd ~rn v =
  lo3 "adds3" rd; lo3 "adds3" rn;
  fixed t ((0b00011 lsl 11) lor (op lsl 9) lor (v lsl 6) lor (rn lsl 3) lor rd)

let adds_imm3 t ~rd ~rn imm = check "adds3" 0 7 imm; addsub3 0b10 t ~rd ~rn imm
let subs_imm3 t ~rd ~rn imm = check "subs3" 0 7 imm; addsub3 0b11 t ~rd ~rn imm

let adds_reg t ~rd ~rn ~rm = lo3 "adds" rm; addsub3 0b00 t ~rd ~rn rm
let subs_reg t ~rd ~rn ~rm = lo3 "subs" rm; addsub3 0b01 t ~rd ~rn rm

let adds_imm8 t ~rdn imm =
  lo3 "adds8" rdn; check "adds8" 0 255 imm;
  fixed t ((0b00110 lsl 11) lor (rdn lsl 8) lor imm)

let subs_imm8 t ~rdn imm =
  lo3 "subs8" rdn; check "subs8" 0 255 imm;
  fixed t ((0b00111 lsl 11) lor (rdn lsl 8) lor imm)

let add_hi t ~rdn ~rm =
  reg4 "add_hi" rdn; reg4 "add_hi" rm;
  fixed t ((0b01000100 lsl 8) lor (((rdn lsr 3) land 1) lsl 7) lor (rm lsl 3) lor (rdn land 7))

let cmp_imm t ~rn imm =
  lo3 "cmp" rn; check "cmp" 0 255 imm;
  fixed t ((0b00101 lsl 11) lor (rn lsl 8) lor imm)

(* --- data processing ---------------------------------------------------- *)

let dp op t rdn rm =
  lo3 "dp" rdn; lo3 "dp" rm;
  fixed t ((0b010000 lsl 10) lor (op lsl 6) lor (rm lsl 3) lor rdn)

let ands t ~rdn ~rm = dp 0b0000 t rdn rm
let eors t ~rdn ~rm = dp 0b0001 t rdn rm
let lsls_reg t ~rdn ~rs = dp 0b0010 t rdn rs
let lsrs_reg t ~rdn ~rs = dp 0b0011 t rdn rs
let asrs_reg t ~rdn ~rs = dp 0b0100 t rdn rs
let adcs t ~rdn ~rm = dp 0b0101 t rdn rm
let sbcs t ~rdn ~rm = dp 0b0110 t rdn rm
let rors_reg t ~rdn ~rs = dp 0b0111 t rdn rs
let tst t ~rn ~rm = dp 0b1000 t rn rm
let rsbs t ~rd ~rn = dp 0b1001 t rd rn
let cmp_reg t ~rn ~rm = dp 0b1010 t rn rm
let cmn t ~rn ~rm = dp 0b1011 t rn rm
let orrs t ~rdn ~rm = dp 0b1100 t rdn rm
let muls t ~rdm ~rn = dp 0b1101 t rdm rn
let bics t ~rdn ~rm = dp 0b1110 t rdn rm
let mvns t ~rd ~rm = dp 0b1111 t rd rm

(* --- shifts (immediate) -------------------------------------------------- *)

let shift_imm op t ~rd ~rm imm =
  lo3 "shift" rd; lo3 "shift" rm; check "shift" 0 31 imm;
  fixed t ((op lsl 11) lor (imm lsl 6) lor (rm lsl 3) lor rd)

let lsls_imm = shift_imm 0b00000
let lsrs_imm = shift_imm 0b00001
let asrs_imm = shift_imm 0b00010

(* --- memory --------------------------------------------------------------- *)

let ls_imm5 top t ~rt ~rn imm ~scale =
  lo3 "ls" rt; lo3 "ls" rn;
  if imm mod scale <> 0 then failwith "Asm_thumb: misscaled offset";
  let u = imm / scale in
  check "ls offset" 0 31 u;
  fixed t ((top lsl 11) lor (u lsl 6) lor (rn lsl 3) lor rt)

let str_imm t ~rt ~rn imm = ls_imm5 0b01100 t ~rt ~rn imm ~scale:4
let ldr_imm t ~rt ~rn imm = ls_imm5 0b01101 t ~rt ~rn imm ~scale:4
let strb_imm t ~rt ~rn imm = ls_imm5 0b01110 t ~rt ~rn imm ~scale:1
let ldrb_imm t ~rt ~rn imm = ls_imm5 0b01111 t ~rt ~rn imm ~scale:1
let strh_imm t ~rt ~rn imm = ls_imm5 0b10000 t ~rt ~rn imm ~scale:2
let ldrh_imm t ~rt ~rn imm = ls_imm5 0b10001 t ~rt ~rn imm ~scale:2

let ls_reg op t ~rt ~rn ~rm =
  lo3 "ls" rt; lo3 "ls" rn; lo3 "ls" rm;
  fixed t ((0b0101 lsl 12) lor (op lsl 9) lor (rm lsl 6) lor (rn lsl 3) lor rt)

let str_reg t ~rt ~rn ~rm = ls_reg 0b000 t ~rt ~rn ~rm
let ldrsb_reg t ~rt ~rn ~rm = ls_reg 0b011 t ~rt ~rn ~rm
let ldr_reg t ~rt ~rn ~rm = ls_reg 0b100 t ~rt ~rn ~rm
let ldrsh_reg t ~rt ~rn ~rm = ls_reg 0b111 t ~rt ~rn ~rm

let sp_rel top t ~rt imm =
  lo3 "sp-rel" rt;
  if imm mod 4 <> 0 then failwith "Asm_thumb: sp offset not word aligned";
  check "sp offset" 0 1020 imm;
  fixed t ((top lsl 11) lor (rt lsl 8) lor (imm / 4))

let str_sp t ~rt imm = sp_rel 0b10010 t ~rt imm
let ldr_sp t ~rt imm = sp_rel 0b10011 t ~rt imm

let list_mask what regs =
  List.fold_left
    (fun acc r ->
      lo3 what r;
      acc lor (1 lsl r))
    0 regs

let push t ?(lr = false) regs =
  fixed t ((0b1011010 lsl 9) lor ((if lr then 1 else 0) lsl 8) lor list_mask "push" regs)

let pop t ?(pc = false) regs =
  fixed t ((0b1011110 lsl 9) lor ((if pc then 1 else 0) lsl 8) lor list_mask "pop" regs)

let stm t ~rn regs =
  lo3 "stm" rn;
  fixed t ((0b11000 lsl 11) lor (rn lsl 8) lor list_mask "stm" regs)

let ldm t ~rn regs =
  lo3 "ldm" rn;
  fixed t ((0b11001 lsl 11) lor (rn lsl 8) lor list_mask "ldm" regs)

(* --- misc ------------------------------------------------------------------ *)

let extend op t ~rd ~rm =
  lo3 "extend" rd; lo3 "extend" rm;
  fixed t ((0b10110010 lsl 8) lor (op lsl 6) lor (rm lsl 3) lor rd)

let sxth t ~rd ~rm = extend 0b00 t ~rd ~rm
let sxtb t ~rd ~rm = extend 0b01 t ~rd ~rm
let uxth t ~rd ~rm = extend 0b10 t ~rd ~rm
let uxtb t ~rd ~rm = extend 0b11 t ~rd ~rm

let rev t ~rd ~rm =
  lo3 "rev" rd; lo3 "rev" rm;
  fixed t ((0b1011101000 lsl 6) lor (rm lsl 3) lor rd)

let sub_sp_imm t imm =
  if imm mod 4 <> 0 then failwith "Asm_thumb: sp adjust not word aligned";
  check "sub sp" 0 508 imm;
  fixed t ((0b101100001 lsl 7) lor (imm / 4))

let nop t = fixed t 0xBF00

(* --- control flow ------------------------------------------------------------ *)

type cond = EQ | NE | CS | CC | MI | PL | VS | VC | HI | LS | GE | LT | GT | LE

let cond_code = function
  | EQ -> 0 | NE -> 1 | CS -> 2 | CC -> 3 | MI -> 4 | PL -> 5 | VS -> 6
  | VC -> 7 | HI -> 8 | LS -> 9 | GE -> 10 | LT -> 11 | GT -> 12 | LE -> 13

let b_cond t cond target =
  push_item t 2 (fun ~pc ~resolve ->
      let off = resolve target - (pc + 4) in
      if off mod 2 <> 0 then failwith "Asm_thumb: odd branch offset";
      let imm = off asr 1 in
      if imm < -128 || imm > 127 then failwith "Asm_thumb: b_cond out of range";
      (0b1101 lsl 12) lor (cond_code cond lsl 8) lor (imm land 0xFF))

let b t target =
  push_item t 2 (fun ~pc ~resolve ->
      let off = resolve target - (pc + 4) in
      let imm = off asr 1 in
      if imm < -1024 || imm > 1023 then failwith "Asm_thumb: b out of range";
      (0b11100 lsl 11) lor (imm land 0x7FF))

let bl t target =
  (* two halfwords; emitted as two items so pc bookkeeping stays simple *)
  let first_pc = t.pc in
  push_item t 2 (fun ~pc:_ ~resolve ->
      let off = resolve target - (first_pc + 4) in
      let imm = (off asr 1) land 0xFFFFFF in
      let s = (imm lsr 23) land 1 in
      let imm10 = (imm lsr 11) land 0x3FF in
      (0b11110 lsl 11) lor (s lsl 10) lor imm10);
  push_item t 2 (fun ~pc:_ ~resolve ->
      let off = resolve target - (first_pc + 4) in
      let imm = (off asr 1) land 0xFFFFFF in
      let s = (imm lsr 23) land 1 in
      let i1 = (imm lsr 22) land 1 in
      let i2 = (imm lsr 21) land 1 in
      let j1 = (lnot (i1 lxor s)) land 1 in
      let j2 = (lnot (i2 lxor s)) land 1 in
      let imm11 = imm land 0x7FF in
      (0b11 lsl 14) lor (j1 lsl 13) lor (1 lsl 12) lor (j2 lsl 11) lor imm11)

let bx t ~rm =
  reg4 "bx" rm;
  fixed t ((0b010001110 lsl 7) lor (rm lsl 3))

let blx t ~rm =
  reg4 "blx" rm;
  fixed t ((0b010001111 lsl 7) lor (rm lsl 3))

let svc t imm =
  check "svc" 0 255 imm;
  fixed t ((0b11011111 lsl 8) lor imm)

let udf t = fixed t 0xDE00

(* --- assembly ----------------------------------------------------------------- *)

let assemble t =
  let resolve name =
    match Hashtbl.find_opt t.labels name with
    | Some a -> a
    | None -> failwith ("Asm_thumb: undefined label " ^ name)
  in
  let items = List.rev t.items in
  let halfwords = Array.make ((t.pc - t.base) / 2) 0 in
  let pc = ref t.base in
  List.iter
    (fun item ->
      halfwords.((!pc - t.base) / 2) <- item.emit ~pc:!pc ~resolve land 0xFFFF;
      pc := !pc + item.size)
    items;
  halfwords
