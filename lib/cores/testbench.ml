module D = Netlist.Design
module S = Netlist.Sim64

type t = {
  sim : S.t;
  program : int array;
  dmem : Bytes.t;
  instr_addr : D.net array;
  instr_rdata : D.net array;
  data_addr : D.net array;
  data_rdata : D.net array;
  data_wdata : D.net array;
  data_be : D.net array;
  data_we : D.net;
  retire : D.net;
  mutable retired : int;
}

let out_bus d nm =
  try D.output_bus d nm
  with Not_found -> (
    match D.find_output d nm with
    | Some n -> [| n |]
    | None -> failwith ("Testbench: no output " ^ nm))

let create design ~program ?(dmem_bytes = 65536) () =
  let sim = S.create design in
  {
    sim;
    program;
    dmem = Bytes.make dmem_bytes '\000';
    instr_addr = out_bus design "instr_addr";
    instr_rdata = D.input_bus design "instr_rdata";
    data_addr = out_bus design "data_addr";
    data_rdata = D.input_bus design "data_rdata";
    data_wdata = out_bus design "data_wdata";
    data_be = out_bus design "data_be";
    data_we = (out_bus design "data_we").(0);
    retire = (out_bus design "retire").(0);
    retired = 0;
  }

let sim t = t.sim

let fetch t byte_addr =
  let hw i =
    if i >= 0 && i < Array.length t.program then t.program.(i) else 0
  in
  let idx = byte_addr / 2 in
  hw idx lor (hw (idx + 1) lsl 16)

let mem_word t byte_addr =
  let base = byte_addr land lnot 3 in
  let byte i =
    if base + i < Bytes.length t.dmem then Char.code (Bytes.get t.dmem (base + i))
    else 0
  in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

let read_mem32 t addr = mem_word t addr

let read_bus t nets = S.read_bus t.sim nets

let cycle t =
  (* Addresses depend only on register state, so one settle exposes
     them; then memories respond and a second settle finalizes the
     cycle before the clock edge.  Wide fetch ports (the 2-wide core)
     are served in 32-bit chunks. *)
  S.eval t.sim;
  let ia = read_bus t t.instr_addr in
  let width = Array.length t.instr_rdata in
  for chunk = 0 to (width / 32) - 1 do
    let sub = Array.sub t.instr_rdata (chunk * 32) 32 in
    S.set_bus t.sim sub (fetch t (ia + (4 * chunk)))
  done;
  if width mod 32 <> 0 then
    S.set_bus t.sim
      (Array.sub t.instr_rdata (width / 32 * 32) (width mod 32))
      (fetch t (ia + (4 * (width / 32))));
  let da = read_bus t t.data_addr in
  S.set_bus t.sim t.data_rdata (mem_word t da);
  S.eval t.sim;
  if S.read t.sim t.retire = -1L then t.retired <- t.retired + 1;
  if S.read t.sim t.data_we = -1L then begin
    let base = da land lnot 3 in
    let be = read_bus t t.data_be in
    let wdata = read_bus t t.data_wdata in
    for i = 0 to 3 do
      if be land (1 lsl i) <> 0 && base + i < Bytes.length t.dmem then
        Bytes.set t.dmem (base + i) (Char.chr ((wdata lsr (8 * i)) land 0xFF))
    done
  end;
  S.step t.sim

let run t ~cycles =
  for _ = 1 to cycles do
    cycle t
  done

let retired t = t.retired
