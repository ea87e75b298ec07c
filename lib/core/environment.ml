open Hdl.Ops
module D = Netlist.Design
module Ctx = Hdl.Ctx

type t = {
  model : D.t;
  assume : D.net;
  stimulus : Engine.Stimulus.t;
  cuts : (D.net * D.net) array;
  description : string;
}

let unconstrained d =
  {
    model = D.copy d;
    assume = D.net_true;
    stimulus = Engine.Stimulus.unconstrained;
    cuts = [||];
    description = "unconstrained";
  }

(* conjunction of the encoding's fixed bits over a signal slice *)
let match_enc word (enc : Isa.Encoding.t) =
  let terms = ref [] in
  for i = 0 to enc.Isa.Encoding.width - 1 do
    if enc.Isa.Encoding.mask land (1 lsl i) <> 0 then begin
      let b = bit word i in
      terms := (if enc.Isa.Encoding.value land (1 lsl i) <> 0 then b else ~:b) :: !terms
    end
  done;
  match !terms with
  | [] -> vdd word.Ctx.ctx
  | [ x ] -> x
  | l -> reduce_and (concat l)

(* register fields used by each RV32 instruction, for the RV32E
   restriction (x16..x31 unreachable) *)
let rv32_reg_fields name =
  match name with
  | "lui" | "auipc" | "jal" -> [ `Rd ]
  | "jalr" | "lb" | "lh" | "lw" | "lbu" | "lhu" | "addi" | "slti" | "sltiu"
  | "xori" | "ori" | "andi" | "slli" | "srli" | "srai" ->
      [ `Rd; `Rs1 ]
  | "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" | "sb" | "sh" | "sw" ->
      [ `Rs1; `Rs2 ]
  | "add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or"
  | "and" | "mul" | "mulh" | "mulhsu" | "mulhu" | "div" | "divu" | "rem"
  | "remu" ->
      [ `Rd; `Rs1; `Rs2 ]
  | "csrrw" | "csrrs" | "csrrc" -> [ `Rd; `Rs1 ]
  | "csrrwi" | "csrrsi" | "csrrci" -> [ `Rd ]
  | _ -> []

let field_top_bit = function `Rd -> 11 | `Rs1 -> 19 | `Rs2 -> 24

let rv32e_extra word name =
  List.fold_left
    (fun acc f -> acc &: ~:(bit word (field_top_bit f)))
    (vdd word.Ctx.ctx)
    (rv32_reg_fields name)

(* monitor over a 32-bit RISC-V fetch word *)
let riscv_monitor c word ~rv32e subset =
  let instrs =
    List.map (fun nm -> Isa.Rv32.find nm) (Isa.Subset.instructions subset)
  in
  let match_one i =
    let m =
      if i.Isa.Rv32.enc.Isa.Encoding.width = 16 then
        match_enc (bits word ~hi:15 ~lo:0) i.Isa.Rv32.enc
      else match_enc word i.Isa.Rv32.enc
    in
    if rv32e && i.Isa.Rv32.enc.Isa.Encoding.width = 32 then
      m &: rv32e_extra word i.Isa.Rv32.name
    else m
  in
  let wide, narrow =
    List.partition (fun i -> i.Isa.Rv32.enc.Isa.Encoding.width = 32) instrs
  in
  let or_all = function
    | [] -> gnd c
    | l -> List.fold_left ( |: ) (gnd c) (List.map match_one l)
  in
  let is16 = ~:(eq_const (bits word ~hi:1 ~lo:0) 0b11) in
  (is16 &: or_all narrow) |: (~:is16 &: or_all wide)

(* constructive stimulus: each lane of each 32-bit slot of the
   instruction bus gets a fresh subset instruction (superscalar ports
   carry several instruction words) *)
let riscv_stimulus nets ~rv32e subset =
  let instrs =
    Array.of_list
      (List.map (fun nm -> Isa.Rv32.find nm) (Isa.Subset.instructions subset))
  in
  let clear_reg_fields name w =
    List.fold_left
      (fun w f -> w land lnot (1 lsl field_top_bit f))
      w (rv32_reg_fields name)
  in
  let gen rng =
    let i = instrs.(Random.State.int rng (Array.length instrs)) in
    let w = Isa.Encoding.random_instance rng i.Isa.Rv32.enc in
    let w =
      if i.Isa.Rv32.enc.Isa.Encoding.width = 16 then
        w lor (Random.State.int rng 0x10000 lsl 16)
      else w
    in
    if rv32e then clear_reg_fields i.Isa.Rv32.name w else w
  in
  let n_slots = Array.length nets / 32 in
  let slots = Array.init n_slots (fun s -> Array.sub nets (32 * s) 32) in
  Engine.Stimulus.
    {
      drive =
        (fun rng ->
          Array.to_list slots
          |> List.concat_map (fun slot -> bus_driver slot gen rng));
    }

let riscv_port ?(rv32e = false) d ~port subset =
  let model = D.copy d in
  let nets = D.input_bus model port in
  if Array.length nets mod 32 <> 0 then
    invalid_arg "Environment.riscv_port: port width must be a multiple of 32";
  let c = Ctx.wrap model in
  (* every 32-bit word on the port must be a subset instruction *)
  let valid =
    List.init (Array.length nets / 32) (fun s ->
        let word = Ctx.signal c (Array.sub nets (32 * s) 32) in
        riscv_monitor c word ~rv32e subset)
    |> List.fold_left ( &: ) (vdd c)
  in
  let assume = valid.Ctx.nets.(0) in
  D.set_net_name model assume "pdat_assume";
  {
    model;
    assume;
    stimulus = riscv_stimulus (D.input_bus d port) ~rv32e subset;
    cuts = [||];
    description =
      Printf.sprintf "port-based %s%s" (Isa.Subset.name subset)
        (if rv32e then " (rv32e registers)" else "");
  }

let riscv_cutpoint ?(rv32e = false) d ~nets subset =
  let model, fresh = Engine.Cutpoint.apply d ~name:"pdat_cut" nets in
  let c = Ctx.wrap model in
  let word = Ctx.signal c fresh in
  let valid = riscv_monitor c word ~rv32e subset in
  let assume = valid.Ctx.nets.(0) in
  D.set_net_name model assume "pdat_assume";
  (* The stimulus drives the cut model's fresh inputs. *)
  {
    model;
    assume;
    stimulus = riscv_stimulus fresh ~rv32e subset;
    cuts = Array.init (Array.length nets) (fun i -> (nets.(i), fresh.(i)));
    description = Printf.sprintf "cutpoint-based %s" (Isa.Subset.name subset);
  }

let arm_port d ~port subset =
  let model = D.copy d in
  let nets = D.input_bus model port in
  let c = Ctx.wrap model in
  let hw = Ctx.signal c nets in
  let instrs =
    List.map (fun nm -> Isa.Armv6m.find nm) (Isa.Subset.instructions subset)
  in
  let narrow, wide =
    List.partition (fun i -> i.Isa.Armv6m.enc.Isa.Encoding.width = 16) instrs
  in
  let narrow_match =
    List.map (fun i -> match_enc hw i.Isa.Armv6m.enc) narrow
  in
  let half_enc (enc : Isa.Encoding.t) ~high =
    let shift = if high then 16 else 0 in
    Isa.Encoding.make ~width:16
      ~mask:((enc.Isa.Encoding.mask lsr shift) land 0xFFFF)
      ~value:((enc.Isa.Encoding.value lsr shift) land 0xFFFF)
  in
  let wide_matches =
    List.concat_map
      (fun i ->
        [ match_enc hw (half_enc i.Isa.Armv6m.enc ~high:true);
          match_enc hw (half_enc i.Isa.Armv6m.enc ~high:false) ])
      wide
  in
  let valid =
    List.fold_left ( |: ) (gnd c) (narrow_match @ wide_matches)
  in
  let assume = valid.Ctx.nets.(0) in
  D.set_net_name model assume "pdat_assume";
  let all = Array.of_list instrs in
  let gen rng =
    let i = all.(Random.State.int rng (Array.length all)) in
    let w = Isa.Encoding.random_instance rng i.Isa.Armv6m.enc in
    if i.Isa.Armv6m.enc.Isa.Encoding.width = 16 then w
    else if Random.State.bool rng then (w lsr 16) land 0xFFFF
    else w land 0xFFFF
  in
  {
    model;
    assume;
    stimulus =
      Engine.Stimulus.{ drive = (fun rng -> bus_driver (D.input_bus d port) gen rng) };
    cuts = [||];
    description = Printf.sprintf "port-based %s" (Isa.Subset.name subset);
  }

let constrain_low_bits t nets ~bits:k =
  let c = Ctx.wrap t.model in
  let lows = Array.sub nets 0 k in
  let all_zero = ~:(reduce_or (Ctx.signal c lows)) in
  let combined =
    if t.assume = D.net_true then all_zero
    else all_zero &: Ctx.signal c [| t.assume |]
  in
  {
    t with
    model = t.model;
    assume = combined.Ctx.nets.(0);
    description = t.description ^ " + aligned";
  }
