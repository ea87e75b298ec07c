(* Unit and property tests for the netlist substrate: cells, the
   design store, topological scheduling, simulation, the Verilog
   backend and the obfuscator. *)

module D = Netlist.Design
module C = Netlist.Cell

let check = Alcotest.(check bool)

(* --- cells ----------------------------------------------------------- *)

(* Reference single-bit semantics, independent of the bit-parallel code. *)
let ref_eval kind ins =
  let to_b i = ins.(i) = 1 in
  let of_b b = if b then 1 else 0 in
  match kind with
  | C.Const0 -> 0
  | C.Const1 -> 1
  | C.Buf -> ins.(0)
  | C.Inv -> 1 - ins.(0)
  | C.And2 -> of_b (to_b 0 && to_b 1)
  | C.Or2 -> of_b (to_b 0 || to_b 1)
  | C.Nand2 -> of_b (not (to_b 0 && to_b 1))
  | C.Nor2 -> of_b (not (to_b 0 || to_b 1))
  | C.Xor2 -> of_b (to_b 0 <> to_b 1)
  | C.Xnor2 -> of_b (to_b 0 = to_b 1)
  | C.And3 -> of_b (to_b 0 && to_b 1 && to_b 2)
  | C.Or3 -> of_b (to_b 0 || to_b 1 || to_b 2)
  | C.Nand3 -> of_b (not (to_b 0 && to_b 1 && to_b 2))
  | C.Nor3 -> of_b (not (to_b 0 || to_b 1 || to_b 2))
  | C.And4 -> of_b (to_b 0 && to_b 1 && to_b 2 && to_b 3)
  | C.Or4 -> of_b (to_b 0 || to_b 1 || to_b 2 || to_b 3)
  | C.Mux2 -> if to_b 0 then ins.(2) else ins.(1)
  | C.Aoi21 -> of_b (not ((to_b 0 && to_b 1) || to_b 2))
  | C.Oai21 -> of_b (not ((to_b 0 || to_b 1) && to_b 2))
  | C.Dff -> invalid_arg "sequential"

let test_cell_truth_tables () =
  List.iter
    (fun kind ->
      if not (C.is_sequential kind) then begin
        let n = C.arity kind in
        for v = 0 to (1 lsl n) - 1 do
          let bits = Array.init n (fun i -> (v lsr i) land 1) in
          let lanes = Array.map (fun b -> if b = 1 then -1L else 0L) bits in
          let got = C.eval kind lanes in
          let expect = if ref_eval kind bits = 1 then -1L else 0L in
          if got <> expect then
            Alcotest.failf "%s mismatch on input %d" (C.name kind) v
        done
      end)
    C.all

let test_cell_names_roundtrip () =
  List.iter
    (fun kind ->
      match C.of_name (C.name kind) with
      | Some k -> check (C.name kind) true (k = kind)
      | None -> Alcotest.failf "of_name failed for %s" (C.name kind))
    C.all

(* --- design store ----------------------------------------------------- *)

let test_design_basics () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.And2 [| a; b |] in
  D.add_output d "x" x;
  check "validates" true (D.validate d = Ok ());
  Alcotest.(check int) "cells (2 ties + 1 gate)" 3 (D.num_cells d);
  check "find a" true (D.find_input d "a" = Some a);
  check "find x" true (D.find_output d "x" = Some x);
  check "driver of x" true (D.driver d x <> None);
  check "driver of a" true (D.driver d a = None)

let test_design_undriven_rejected () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let dangling = D.new_net d in
  let x = D.add_cell d C.And2 [| a; dangling |] in
  D.add_output d "x" x;
  check "invalid" true (match D.validate d with Error _ -> true | Ok () -> false)

let test_design_double_drive_rejected () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  check "double drive"
    true
    (try
       D.add_cell_out d C.Buf [| a |] ~out:x;
       false
     with Invalid_argument _ -> true)

let test_bus_helpers () =
  let d = D.create "t" in
  let nets = Array.init 4 (fun i -> D.add_input d (Printf.sprintf "data[%d]" i)) in
  let bus = D.input_bus d "data" in
  Alcotest.(check int) "bus width" 4 (Array.length bus);
  Array.iteri (fun i _n -> check "bus order" true (bus.(i) = nets.(i))) bus

let test_compact_removes_dead () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let live = D.add_cell d C.Inv [| a |] in
  let _dead = D.add_cell d C.Inv [| live |] in
  let _dead2 = D.add_cell d C.And2 [| a; a |] in
  D.add_output d "x" live;
  let d' = D.compact d in
  Alcotest.(check int) "only ties + live inv" 3 (D.num_cells d');
  check "still valid" true (D.validate d' = Ok ())

(* --- topo ------------------------------------------------------------ *)

let test_topo_orders_fanin_first () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  let y = D.add_cell d C.Inv [| x |] in
  D.add_output d "y" y;
  let s = Netlist.Topo.schedule d in
  let pos = Hashtbl.create 8 in
  Array.iteri (fun i ci -> Hashtbl.replace pos ci i) s.Netlist.Topo.order;
  D.iter_cells d (fun ci c ->
      if not (C.is_sequential c.D.kind) then
        Array.iter
          (fun n ->
            match D.driver d n with
            | Some ci' when not (C.is_sequential (D.cell d ci').D.kind) ->
                check "fanin scheduled before"
                  true
                  (Hashtbl.find pos ci' < Hashtbl.find pos ci)
            | Some _ | None -> ())
          c.D.ins)

let test_topo_detects_cycle () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let loop_net = D.new_net d in
  let x = D.add_cell d C.And2 [| a; loop_net |] in
  D.add_cell_out d C.Inv [| x |] ~out:loop_net;
  D.add_output d "x" x;
  check "cycle raised" true
    (try
       ignore (Netlist.Topo.schedule d);
       false
     with Netlist.Topo.Combinational_cycle _ -> true)

let test_topo_flop_breaks_cycle () =
  let d = D.create "t" in
  let q = D.new_net d in
  let nq = D.add_cell d C.Inv [| q |] in
  D.add_cell_out d C.Dff [| nq |] ~out:q;
  D.add_output d "q" q;
  ignore (Netlist.Topo.schedule d);
  check "ok" true true

let test_topo_self_loop_register () =
  (* q -> D of the same flop, no combinational logic at all: the flop
     output is a source, so the schedule must succeed *)
  let d = D.create "t" in
  let q = D.new_net d in
  D.add_cell_out d C.Dff [| q |] ~out:q;
  D.add_output d "q" q;
  let s = Netlist.Topo.schedule d in
  Alcotest.(check int) "one flop" 1 (Array.length s.Netlist.Topo.flops);
  (* the combinational order holds exactly the two rail ties *)
  Alcotest.(check int) "ties only" 2 (Array.length s.Netlist.Topo.order);
  Alcotest.(check int) "flop output is a source" 0
    s.Netlist.Topo.level.(q)

let test_topo_empty_design () =
  let d = D.create "empty" in
  let s = Netlist.Topo.schedule d in
  Alcotest.(check int) "rail ties scheduled" 2
    (Array.length s.Netlist.Topo.order);
  Alcotest.(check int) "no flops" 0 (Array.length s.Netlist.Topo.flops);
  Alcotest.(check int) "constants sit at level 0" 0
    (Netlist.Topo.max_level s)

(* --- sim -------------------------------------------------------------- *)

let test_sim_toggle_flop () =
  (* q' = !q toggles every cycle from its reset value *)
  let d = D.create "t" in
  let q = D.new_net d in
  let nq = D.add_cell d C.Inv [| q |] in
  D.add_cell_out d ~init:false C.Dff [| nq |] ~out:q;
  D.add_output d "q" q;
  let sim = Netlist.Sim64.create d in
  let values = ref [] in
  for _ = 1 to 4 do
    Netlist.Sim64.eval sim;
    values := Netlist.Sim64.read sim q :: !values;
    Netlist.Sim64.step sim
  done;
  check "toggles" true (List.rev !values = [ 0L; -1L; 0L; -1L ])

let test_sim_adder () =
  (* 4-bit ripple-carry adder built from gates; checked exhaustively. *)
  let d = D.create "adder" in
  let a = Array.init 4 (fun i -> D.add_input d (Printf.sprintf "a[%d]" i)) in
  let b = Array.init 4 (fun i -> D.add_input d (Printf.sprintf "b[%d]" i)) in
  let carry = ref D.net_false in
  let sum =
    Array.init 4 (fun i ->
        let axb = D.add_cell d C.Xor2 [| a.(i); b.(i) |] in
        let s = D.add_cell d C.Xor2 [| axb; !carry |] in
        let c1 = D.add_cell d C.And2 [| a.(i); b.(i) |] in
        let c2 = D.add_cell d C.And2 [| axb; !carry |] in
        carry := D.add_cell d C.Or2 [| c1; c2 |];
        s)
  in
  Array.iteri (fun i s -> D.add_output d (Printf.sprintf "s[%d]" i) s) sum;
  D.add_output d "cout" !carry;
  let sim = Netlist.Sim64.create d in
  for x = 0 to 15 do
    for y = 0 to 15 do
      Netlist.Sim64.set_bus sim a x;
      Netlist.Sim64.set_bus sim b y;
      Netlist.Sim64.eval sim;
      let s = Netlist.Sim64.read_bus sim sum in
      let cout = if Netlist.Sim64.read sim !carry = 0L then 0 else 1 in
      Alcotest.(check int) "sum" ((x + y) land 15) s;
      Alcotest.(check int) "cout" ((x + y) lsr 4) cout
    done
  done

(* One cell of every combinational kind, each on its own fresh inputs,
   driven with random 64-lane words: the compiled kernel must agree
   with [Cell.eval] lane for lane. *)
let test_sim_kernel_matches_cell_eval () =
  let d = D.create "kinds" in
  let gates =
    List.filter_map
      (fun kind ->
        if C.is_sequential kind then None
        else
          let ins =
            Array.init (C.arity kind) (fun i ->
                D.add_input d (Printf.sprintf "%s_%d" (C.name kind) i))
          in
          Some (kind, ins, D.add_cell d kind ins))
      C.all
  in
  let sim = Netlist.Sim64.create d in
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 200 do
    let words =
      List.map
        (fun (kind, ins, out) ->
          let w = Array.map (fun _ -> Random.State.bits64 rng) ins in
          Array.iteri (fun i n -> Netlist.Sim64.set_input sim n w.(i)) ins;
          (kind, w, out))
        gates
    in
    Netlist.Sim64.eval sim;
    List.iter
      (fun (kind, w, out) ->
        if Netlist.Sim64.read sim out <> C.eval kind w then
          Alcotest.failf "%s: kernel disagrees with Cell.eval" (C.name kind))
      words
  done;
  (* pin order, spelled out: Mux2 is [| sel; a; b |] with [a] when sel = 0;
     Aoi21/Oai21 are [| a1; a2; b |] with [b] outside the inner gate *)
  let out_of kind w =
    let _, ins, out = List.find (fun (k, _, _) -> k = kind) gates in
    Array.iteri (fun i n -> Netlist.Sim64.set_input sim n w.(i)) ins;
    Netlist.Sim64.eval sim;
    Netlist.Sim64.read sim out
  in
  let sel = 0x00FF00FF00FF00FFL and a = 0x0F0F0F0F0F0F0F0FL
  and b = 0x3333333333333333L in
  let open Int64 in
  check "mux2 picks a where sel = 0" true
    (out_of C.Mux2 [| sel; a; b |]
    = logor (logand (lognot sel) a) (logand sel b));
  check "aoi21 = !((a1 & a2) | b)" true
    (out_of C.Aoi21 [| sel; a; b |] = lognot (logor (logand sel a) b));
  check "oai21 = !((a1 | a2) & b)" true
    (out_of C.Oai21 [| sel; a; b |] = lognot (logand (logor sel a) b))

let test_sim_flop_chain_latches_pre_edge () =
  (* in -> q1 -> q2: one edge moves the input into q1 only *)
  let d = D.create "chain" in
  let i = D.add_input d "i" in
  let q1 = D.add_dff d ~d:i () in
  let q2 = D.add_dff d ~d:q1 () in
  D.add_output d "q2" q2;
  let sim = Netlist.Sim64.create d in
  Netlist.Sim64.set_input sim i (-1L);
  Netlist.Sim64.eval sim;
  Netlist.Sim64.step sim;
  Netlist.Sim64.eval sim;
  check "q1 latched the input" true (Netlist.Sim64.read sim q1 = -1L);
  check "q2 latched q1's pre-edge value" true (Netlist.Sim64.read sim q2 = 0L);
  Netlist.Sim64.step sim;
  Netlist.Sim64.eval sim;
  check "q2 one edge later" true (Netlist.Sim64.read sim q2 = -1L)

let test_sim_reset_load_state_roundtrip () =
  let d = D.create "regs" in
  let i = D.add_input d "i" in
  let q0 = D.add_dff d ~init:false ~d:i () in
  let q1 = D.add_dff d ~init:true ~d:i () in
  let x = D.add_cell d C.Xor2 [| q0; q1 |] in
  D.add_output d "x" x;
  let sim = Netlist.Sim64.create d in
  let state q = if q = q0 then 0x1234L else 0x5678L in
  Netlist.Sim64.set_input sim i (-1L);
  Netlist.Sim64.load_state sim state;
  Netlist.Sim64.eval sim;
  check "loaded state read back" true
    (Netlist.Sim64.read sim q0 = 0x1234L && Netlist.Sim64.read sim q1 = 0x5678L);
  check "logic sees loaded state" true
    (Netlist.Sim64.read sim x = Int64.logxor 0x1234L 0x5678L);
  Netlist.Sim64.reset sim;
  Netlist.Sim64.eval sim;
  check "reset values" true
    (Netlist.Sim64.read sim q0 = 0L && Netlist.Sim64.read sim q1 = -1L);
  check "reset clears inputs" true (Netlist.Sim64.read sim i = 0L);
  Netlist.Sim64.load_state sim state;
  Netlist.Sim64.eval sim;
  check "load after reset" true
    (Netlist.Sim64.read sim x = Int64.logxor 0x1234L 0x5678L)

let test_sim_eval_step_allocate_nothing () =
  let d = (Cores.Ibex_like.build ()).Cores.Ibex_like.design in
  let sim = Netlist.Sim64.create d in
  Netlist.Sim64.eval sim;
  Netlist.Sim64.step sim;
  let before = Gc.minor_words () in
  for _ = 1 to 10 do
    Netlist.Sim64.eval sim;
    Netlist.Sim64.step sim
  done;
  let after = Gc.minor_words () in
  Alcotest.(check (float 0.)) "minor words over 10 cycles" 0. (after -. before)

(* --- equivalence harness used by verilog/obfuscate tests -------------- *)

let random_stimulus rng nets = List.map (fun n -> (n, Random.State.int64 rng Int64.max_int)) nets

let sequentially_equivalent ?(cycles = 20) d1 d2 =
  let rng = Random.State.make [| 99 |] in
  let in1 = D.inputs d1 and in2 = D.inputs d2 in
  if List.map fst in1 <> List.map fst in2 then false
  else begin
    let s1 = Netlist.Sim64.create d1 and s2 = Netlist.Sim64.create d2 in
    let ok = ref true in
    for _ = 1 to cycles do
      let stim = random_stimulus rng (List.map fst in1) in
      List.iter (fun (nm, v) -> Netlist.Sim64.set_input_name s1 nm v) stim;
      List.iter (fun (nm, v) -> Netlist.Sim64.set_input_name s2 nm v) stim;
      Netlist.Sim64.eval s1;
      Netlist.Sim64.eval s2;
      List.iter2
        (fun (nm, n1) (_, n2) ->
          if Netlist.Sim64.read s1 n1 <> Netlist.Sim64.read s2 n2 then begin
            ok := false;
            ignore nm
          end)
        (D.outputs d1) (D.outputs d2);
      Netlist.Sim64.step s1;
      Netlist.Sim64.step s2
    done;
    !ok
  end

let test_verilog_roundtrip () =
  for seed = 1 to 10 do
    let d = Netlist.Generate.random ~seed () in
    let src = Netlist.Verilog.to_string d in
    let d' = Netlist.Verilog.of_string src in
    check (Printf.sprintf "seed %d equivalent" seed) true
      (sequentially_equivalent d d')
  done

let test_verilog_rejects_garbage () =
  check "garbage rejected" true
    (try
       ignore (Netlist.Verilog.of_string "module m (input a;");
       false
     with Netlist.Verilog.Parse_error _ -> true);
  check "unknown cell rejected" true
    (try
       ignore
         (Netlist.Verilog.of_string
            "module m (input a, output z);\n FROB_X1 u1 (.A(a), .Z(z));\nendmodule");
       false
     with Netlist.Verilog.Parse_error _ -> true)

let test_obfuscate_equivalent () =
  for seed = 1 to 10 do
    let d = Netlist.Generate.random ~seed () in
    let d' = Netlist.Obfuscate.run d in
    check (Printf.sprintf "seed %d equivalent" seed) true
      (sequentially_equivalent d d')
  done

let test_obfuscate_nand_only () =
  let d = Netlist.Generate.random ~seed:3 () in
  let d' = Netlist.Obfuscate.nand_remap d in
  D.iter_cells d' (fun _ c ->
      match c.D.kind with
      | C.Nand2 | C.Inv | C.Buf | C.Dff | C.Const0 | C.Const1 -> ()
      | k -> Alcotest.failf "unexpected cell kind %s after remap" (C.name k))

(* exhaustive check of each single-gate remap recipe *)
let test_obfuscate_per_gate () =
  List.iter
    (fun kind ->
      if (not (C.is_sequential kind)) && C.arity kind > 0 then begin
        let d = D.create "g" in
        let ins =
          Array.init (C.arity kind) (fun i ->
              D.add_input d (Printf.sprintf "i[%d]" i))
        in
        let out = D.add_cell d kind ins in
        D.add_output d "o" out;
        let d' = Netlist.Obfuscate.nand_remap d in
        let sim = Netlist.Sim64.create d' in
        let obus = D.output_bus d' "o" in
        for v = 0 to (1 lsl C.arity kind) - 1 do
          let bits = Array.init (C.arity kind) (fun i -> (v lsr i) land 1) in
          Netlist.Sim64.set_bus sim (D.input_bus d' "i") v;
          Netlist.Sim64.eval sim;
          let got = Netlist.Sim64.read_bus sim obus in
          Alcotest.(check int)
            (Printf.sprintf "%s input %d" (C.name kind) v)
            (ref_eval kind bits) got
        done
      end)
    C.all

let test_stats () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  let q = D.add_dff d ~d:x () in
  let b = D.add_cell d C.Buf [| q |] in
  D.add_output d "q" b;
  let st = Netlist.Stats.of_design d in
  Alcotest.(check int) "gates" 1 st.Netlist.Stats.gates;
  Alcotest.(check int) "buffers" 1 st.Netlist.Stats.buffers;
  Alcotest.(check int) "flops" 1 st.Netlist.Stats.flops;
  check "area positive" true (st.Netlist.Stats.area > 0.0);
  check "delta pct" true
    (abs_float (Netlist.Stats.delta_pct ~baseline:200.0 150.0 -. 25.0) < 1e-9)

(* --- qcheck properties ------------------------------------------------ *)

let qcheck_compact_preserves_behaviour =
  QCheck.Test.make ~name:"compact preserves sequential behaviour" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let d = Netlist.Generate.random ~seed () in
      sequentially_equivalent d (D.compact d))

let qcheck_verilog_roundtrip =
  QCheck.Test.make ~name:"verilog round-trip equivalence" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let d = Netlist.Generate.random ~seed () in
      sequentially_equivalent d (Netlist.Verilog.of_string (Netlist.Verilog.to_string d)))

let qcheck_obfuscate =
  QCheck.Test.make ~name:"obfuscation is sequence-equivalent" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let d = Netlist.Generate.random ~seed () in
      sequentially_equivalent d (Netlist.Obfuscate.run ~seed d))

let qcheck_generate_valid =
  QCheck.Test.make ~name:"generated designs validate" ~count:50
    QCheck.(int_range 1 100_000)
    (fun seed -> D.validate (Netlist.Generate.random ~seed ()) = Ok ())

let () =
  Alcotest.run "netlist"
    [
      ( "cell",
        [
          Alcotest.test_case "truth tables" `Quick test_cell_truth_tables;
          Alcotest.test_case "name roundtrip" `Quick test_cell_names_roundtrip;
        ] );
      ( "design",
        [
          Alcotest.test_case "basics" `Quick test_design_basics;
          Alcotest.test_case "undriven rejected" `Quick test_design_undriven_rejected;
          Alcotest.test_case "double drive rejected" `Quick
            test_design_double_drive_rejected;
          Alcotest.test_case "bus helpers" `Quick test_bus_helpers;
          Alcotest.test_case "compact removes dead" `Quick test_compact_removes_dead;
        ] );
      ( "topo",
        [
          Alcotest.test_case "fanin first" `Quick test_topo_orders_fanin_first;
          Alcotest.test_case "cycle detection" `Quick test_topo_detects_cycle;
          Alcotest.test_case "flop breaks cycle" `Quick test_topo_flop_breaks_cycle;
          Alcotest.test_case "self-loop register" `Quick
            test_topo_self_loop_register;
          Alcotest.test_case "empty design" `Quick test_topo_empty_design;
        ] );
      ( "sim",
        [
          Alcotest.test_case "toggle flop" `Quick test_sim_toggle_flop;
          Alcotest.test_case "4-bit adder exhaustive" `Quick test_sim_adder;
          Alcotest.test_case "kernel matches Cell.eval" `Quick
            test_sim_kernel_matches_cell_eval;
          Alcotest.test_case "flop chain latches pre-edge values" `Quick
            test_sim_flop_chain_latches_pre_edge;
          Alcotest.test_case "reset and load_state round-trip" `Quick
            test_sim_reset_load_state_roundtrip;
          Alcotest.test_case "eval and step allocate nothing" `Quick
            test_sim_eval_step_allocate_nothing;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "roundtrip" `Quick test_verilog_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_verilog_rejects_garbage;
        ] );
      ( "obfuscate",
        [
          Alcotest.test_case "equivalent" `Quick test_obfuscate_equivalent;
          Alcotest.test_case "nand only" `Quick test_obfuscate_nand_only;
          Alcotest.test_case "per-gate recipes" `Quick test_obfuscate_per_gate;
        ] );
      ( "stats", [ Alcotest.test_case "counting" `Quick test_stats ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_compact_preserves_behaviour;
            qcheck_verilog_roundtrip;
            qcheck_obfuscate;
            qcheck_generate_valid;
          ] );
    ]
