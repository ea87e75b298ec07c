type arch = Riscv | Arm

type t = {
  arch : arch;
  name : string;
  instrs : string list;  (* sorted, unique *)
}

let known arch nm =
  match arch with
  | Riscv -> List.exists (fun i -> i.Rv32.name = nm) Rv32.all
  | Arm -> List.exists (fun i -> i.Armv6m.name = nm) Armv6m.all

let make arch name instrs =
  let sorted = List.sort_uniq compare instrs in
  if List.length sorted <> List.length instrs then
    invalid_arg (Printf.sprintf "Subset.make %s: duplicate instructions" name);
  List.iter
    (fun nm ->
      if not (known arch nm) then
        invalid_arg (Printf.sprintf "Subset.make %s: unknown instruction %s" name nm))
    instrs;
  { arch; name; instrs = sorted }

let arch t = t.arch
let name t = t.name
let instructions t = t.instrs
let size t = List.length t.instrs
let mem t nm = List.mem nm t.instrs

let same_arch a b =
  if a.arch <> b.arch then invalid_arg "Subset: mixing architectures";
  a.arch

let union name a b = { arch = same_arch a b; name; instrs = List.sort_uniq compare (a.instrs @ b.instrs) }

let remove name t dropped =
  List.iter
    (fun nm ->
      if not (known t.arch nm) then
        invalid_arg (Printf.sprintf "Subset.remove %s: unknown instruction %s" name nm))
    dropped;
  { t with name; instrs = List.filter (fun i -> not (List.mem i dropped)) t.instrs }

(* --- RISC-V families -------------------------------------------------- *)

let of_exts name exts =
  make Riscv name
    (List.concat_map (fun e -> Rv32.names (Rv32.by_ext e)) exts)

let rv32imcz = of_exts "rv32imcz" [ Rv32.I; Rv32.M; Rv32.C; Rv32.Zicsr; Rv32.Zifencei ]
let rv32imc = of_exts "rv32imc" [ Rv32.I; Rv32.M; Rv32.C ]
let rv32im = of_exts "rv32im" [ Rv32.I; Rv32.M ]
let rv32ic = of_exts "rv32ic" [ Rv32.I; Rv32.C ]
let rv32i = of_exts "rv32i" [ Rv32.I ]
let rv32e = { (of_exts "rv32i" [ Rv32.I ]) with name = "rv32e" }

let rv32i_reduced_addressing = remove "reduced-addressing" rv32i Rv32.r_type
let rv32i_safety_critical = remove "safety-critical" rv32i Rv32.safety_critical_removed
let rv32i_no_parallelism = remove "no-parallelism" rv32i Rv32.bit_parallel
let rv32i_aligned = { rv32i with name = "aligned" }
let risc16 = make Riscv "risc16" Rv32.risc16

(* --- ARM --------------------------------------------------------------- *)

let armv6m_full = make Arm "armv6m" (Armv6m.names Armv6m.all)
let armv6m_interesting = make Arm "armv6m-interesting" Armv6m.interesting_subset
