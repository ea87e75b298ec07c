type ext = I | M | C | Zicsr | Zifencei

type t = {
  name : string;
  ext : ext;
  enc : Encoding.t;
}

let def name ext pat = { name; ext; enc = Encoding.of_pattern pat }

(* 32-bit patterns are written MSB-first:
   funct7 _ rs2 _ rs1 _ funct3 _ rd _ opcode.  'z' bits are free. *)

let base =
  [
    def "lui"    I "zzzzzzzzzzzzzzzzzzzz_zzzzz_0110111";
    def "auipc"  I "zzzzzzzzzzzzzzzzzzzz_zzzzz_0010111";
    def "jal"    I "zzzzzzzzzzzzzzzzzzzz_zzzzz_1101111";
    def "jalr"   I "zzzzzzzzzzzz_zzzzz_000_zzzzz_1100111";
    def "beq"    I "zzzzzzz_zzzzz_zzzzz_000_zzzzz_1100011";
    def "bne"    I "zzzzzzz_zzzzz_zzzzz_001_zzzzz_1100011";
    def "blt"    I "zzzzzzz_zzzzz_zzzzz_100_zzzzz_1100011";
    def "bge"    I "zzzzzzz_zzzzz_zzzzz_101_zzzzz_1100011";
    def "bltu"   I "zzzzzzz_zzzzz_zzzzz_110_zzzzz_1100011";
    def "bgeu"   I "zzzzzzz_zzzzz_zzzzz_111_zzzzz_1100011";
    def "lb"     I "zzzzzzzzzzzz_zzzzz_000_zzzzz_0000011";
    def "lh"     I "zzzzzzzzzzzz_zzzzz_001_zzzzz_0000011";
    def "lw"     I "zzzzzzzzzzzz_zzzzz_010_zzzzz_0000011";
    def "lbu"    I "zzzzzzzzzzzz_zzzzz_100_zzzzz_0000011";
    def "lhu"    I "zzzzzzzzzzzz_zzzzz_101_zzzzz_0000011";
    def "sb"     I "zzzzzzz_zzzzz_zzzzz_000_zzzzz_0100011";
    def "sh"     I "zzzzzzz_zzzzz_zzzzz_001_zzzzz_0100011";
    def "sw"     I "zzzzzzz_zzzzz_zzzzz_010_zzzzz_0100011";
    def "addi"   I "zzzzzzzzzzzz_zzzzz_000_zzzzz_0010011";
    def "slti"   I "zzzzzzzzzzzz_zzzzz_010_zzzzz_0010011";
    def "sltiu"  I "zzzzzzzzzzzz_zzzzz_011_zzzzz_0010011";
    def "xori"   I "zzzzzzzzzzzz_zzzzz_100_zzzzz_0010011";
    def "ori"    I "zzzzzzzzzzzz_zzzzz_110_zzzzz_0010011";
    def "andi"   I "zzzzzzzzzzzz_zzzzz_111_zzzzz_0010011";
    def "slli"   I "0000000_zzzzz_zzzzz_001_zzzzz_0010011";
    def "srli"   I "0000000_zzzzz_zzzzz_101_zzzzz_0010011";
    def "srai"   I "0100000_zzzzz_zzzzz_101_zzzzz_0010011";
    def "add"    I "0000000_zzzzz_zzzzz_000_zzzzz_0110011";
    def "sub"    I "0100000_zzzzz_zzzzz_000_zzzzz_0110011";
    def "sll"    I "0000000_zzzzz_zzzzz_001_zzzzz_0110011";
    def "slt"    I "0000000_zzzzz_zzzzz_010_zzzzz_0110011";
    def "sltu"   I "0000000_zzzzz_zzzzz_011_zzzzz_0110011";
    def "xor"    I "0000000_zzzzz_zzzzz_100_zzzzz_0110011";
    def "srl"    I "0000000_zzzzz_zzzzz_101_zzzzz_0110011";
    def "sra"    I "0100000_zzzzz_zzzzz_101_zzzzz_0110011";
    def "or"     I "0000000_zzzzz_zzzzz_110_zzzzz_0110011";
    def "and"    I "0000000_zzzzz_zzzzz_111_zzzzz_0110011";
    def "fence"  I "zzzz_zzzz_zzzz_zzzzz_000_zzzzz_0001111";
    def "ecall"  I "00000000000000000000000001110011";
    def "ebreak" I "00000000000100000000000001110011";
  ]

let m_ext =
  [
    def "mul"    M "0000001_zzzzz_zzzzz_000_zzzzz_0110011";
    def "mulh"   M "0000001_zzzzz_zzzzz_001_zzzzz_0110011";
    def "mulhsu" M "0000001_zzzzz_zzzzz_010_zzzzz_0110011";
    def "mulhu"  M "0000001_zzzzz_zzzzz_011_zzzzz_0110011";
    def "div"    M "0000001_zzzzz_zzzzz_100_zzzzz_0110011";
    def "divu"   M "0000001_zzzzz_zzzzz_101_zzzzz_0110011";
    def "rem"    M "0000001_zzzzz_zzzzz_110_zzzzz_0110011";
    def "remu"   M "0000001_zzzzz_zzzzz_111_zzzzz_0110011";
  ]

(* 16-bit compressed patterns, MSB-first: funct3 _ ... _ op.
   Some encodings deliberately overlap (c.addi16sp within c.lui's
   format, c.jr/c.mv, c.jalr/c.add/c.ebreak); decode16 resolves by
   list order, most specific first. *)
let c_ext =
  [
    def "c.addi4spn" C "000_zzzzzzzz_zzz_00";
    def "c.lw"       C "010_zzz_zzz_zz_zzz_00";
    def "c.sw"       C "110_zzz_zzz_zz_zzz_00";
    def "c.addi"     C "000_z_zzzzz_zzzzz_01";
    def "c.jal"      C "001_z_zzzzzzzzzz_01";
    def "c.li"       C "010_z_zzzzz_zzzzz_01";
    def "c.addi16sp" C "011_z_00010_zzzzz_01";
    def "c.lui"      C "011_z_zzzzz_zzzzz_01";
    def "c.srli"     C "100_0_00_zzz_zzzzz_01";
    def "c.srai"     C "100_0_01_zzz_zzzzz_01";
    def "c.andi"     C "100_z_10_zzz_zzzzz_01";
    def "c.sub"      C "100_0_11_zzz_00_zzz_01";
    def "c.xor"      C "100_0_11_zzz_01_zzz_01";
    def "c.or"       C "100_0_11_zzz_10_zzz_01";
    def "c.and"      C "100_0_11_zzz_11_zzz_01";
    def "c.j"        C "101_z_zzzzzzzzzz_01";
    def "c.beqz"     C "110_zzz_zzz_zzzzz_01";
    def "c.bnez"     C "111_zzz_zzz_zzzzz_01";
    def "c.slli"     C "000_0_zzzzz_zzzzz_10";
    def "c.lwsp"     C "010_z_zzzzz_zzzzz_10";
    def "c.jr"       C "100_0_zzzzz_00000_10";
    def "c.mv"       C "100_0_zzzzz_zzzzz_10";
    def "c.ebreak"   C "100_1_00000_00000_10";
    def "c.jalr"     C "100_1_zzzzz_00000_10";
    def "c.add"      C "100_1_zzzzz_zzzzz_10";
    def "c.swsp"     C "110_zzzzzz_zzzzz_10";
  ]

let zicsr =
  [
    def "csrrw"  Zicsr "zzzzzzzzzzzz_zzzzz_001_zzzzz_1110011";
    def "csrrs"  Zicsr "zzzzzzzzzzzz_zzzzz_010_zzzzz_1110011";
    def "csrrc"  Zicsr "zzzzzzzzzzzz_zzzzz_011_zzzzz_1110011";
    def "csrrwi" Zicsr "zzzzzzzzzzzz_zzzzz_101_zzzzz_1110011";
    def "csrrsi" Zicsr "zzzzzzzzzzzz_zzzzz_110_zzzzz_1110011";
    def "csrrci" Zicsr "zzzzzzzzzzzz_zzzzz_111_zzzzz_1110011";
  ]

let zifencei = [ def "fence.i" Zifencei "zzzz_zzzz_zzzz_zzzzz_001_zzzzz_0001111" ]

let all = base @ m_ext @ c_ext @ zicsr @ zifencei

let find name = List.find (fun i -> i.name = name) all
let by_ext e = List.filter (fun i -> i.ext = e) all
let names l = List.map (fun i -> i.name) l

(* decode priority: exact encodings (ecall/ebreak) must precede the
   free-field encodings they specialize; the table above already lists
   them before csr instructions via a dedicated pass below. *)
let decode32 word =
  let specials = [ find "ecall"; find "ebreak"; find "fence.i" ] in
  let try_list l = List.find_opt (fun i -> Encoding.matches i.enc word) l in
  match try_list specials with
  | Some i -> Some i
  | None ->
      try_list (List.filter (fun i -> i.enc.Encoding.width = 32) all)

let decode16 word =
  List.find_opt
    (fun i -> i.enc.Encoding.width = 16 && Encoding.matches i.enc word)
    c_ext

let is_compressed word = word land 3 <> 3

let r_type =
  [ "add"; "sub"; "sll"; "slt"; "sltu"; "xor"; "srl"; "sra"; "or"; "and" ]

let safety_critical_removed = [ "jalr"; "auipc"; "fence"; "ecall"; "ebreak" ]

let bit_parallel =
  [ "and"; "or"; "xor"; "andi"; "ori"; "xori";
    "sll"; "srl"; "sra"; "slli"; "srli"; "srai" ]

let risc16 =
  [ "c.add"; "c.addi"; "c.and"; "c.xor"; "c.lui"; "c.lw"; "c.sw"; "c.beqz"; "c.jalr" ]
