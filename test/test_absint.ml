(* Tests for the ternary reachability engine behind the absint-backed
   lint rules, plus first coverage for [Engine.Cutpoint] and
   [Engine.Equiv].

   Two contracts are under test.  A constant reported by [Absint] is an
   invariant of the design, so the non-incremental [Oracle] must
   confirm every one of them.  And the event-driven pass reaches the
   same least fixpoint as the synchronous iteration it replaced
   ([Kleene]), net for net. *)

module D = Netlist.Design
module C = Netlist.Cell
module A = Engine.Absint

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sorted = List.sort Engine.Candidate.compare
let same_set a b = sorted a = sorted b

let mem_const consts n b =
  List.exists (Engine.Candidate.equal (Engine.Candidate.Const (n, b))) consts

(* the oracle must prove the whole constant set: the
   conjunction of absint constants is 1-inductive, and mutual induction
   is complete for conjunctive 1-inductive sets *)
let oracle_confirms d consts =
  consts = []
  ||
  let proved = Oracle.prove ~assume:D.net_true d consts in
  same_set proved consts

let check_matches_reference label d =
  match Kleene.first_mismatch d with
  | None -> ()
  | Some (n, got, want) ->
      Alcotest.failf "%s: net %d (%s) is %d, the Kleene reference says %d"
        label n (D.net_name d n) got want

(* --- the abstract fixpoint --------------------------------------------- *)

(* a rail-fed register is 0 forever; the constant propagates through a
   gate, another register and a disjunction *)
let test_forced_constants () =
  let d = D.create "const_chain" in
  let a = D.add_input d "a" in
  let na = D.add_cell d C.Inv [| a |] in
  let r = D.add_dff d ~d:D.net_false () in
  let zero = D.add_cell d C.And2 [| a; r |] in
  let r2 = D.add_dff d ~d:zero () in
  let y = D.add_cell d C.Or2 [| r; r2 |] in
  D.add_output d "y" y;
  let ai = A.run d in
  check_int "zero is 0" 0 (A.value ai zero);
  check_int "r is 0" 0 (A.value ai r);
  check_int "r2 is 0" 0 (A.value ai r2);
  check_int "y is 0" 0 (A.value ai y);
  check_int "free input is unknown" Engine.Ternary.x (A.value ai a);
  let consts = A.constants ai in
  check "zero exported" true (mem_const consts zero false);
  check "r exported" true (mem_const consts r false);
  check "y exported" true (mem_const consts y false);
  check "inputs never exported" false
    (List.exists
       (function Engine.Candidate.Const (n, _) -> n = a | _ -> false)
       consts);
  check "a free net is not exported" false
    (List.exists
       (function Engine.Candidate.Const (n, _) -> n = na | _ -> false)
       consts);
  check "oracle confirms every constant" true (oracle_confirms d consts)

let test_dead_write () =
  let d = D.create "deadwrite" in
  let s = D.add_input d "s" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let m = D.add_cell d C.Mux2 [| s; a; b |] in
  let r = D.add_dff d ~d:m () in
  D.add_output d "q" r;
  (* free select: no claim *)
  check "free select claims nothing" true (A.dead_writes (A.run d) = []);
  (* tie the select to the 0 rail: the B arm is dead *)
  let tied = D.substitute d (fun n -> if n = s then D.net_false else n) in
  match A.dead_writes (A.run tied) with
  | [ (ci, false) ] -> check_int "the register's write" r (D.cell tied ci).D.out
  | l -> Alcotest.failf "expected one dead write, got %d" (List.length l)

(* The reference's worst case: a toggling flop turns x after one step
   and each stage behind it one step later, so the reference sweeps the
   whole register once per stage.  The stages are added last first, so
   x reaches them through the worklist, not through one pass over the
   flops in cell order.  The pass must agree on every stage. *)
let test_shift_register () =
  let d = D.create "shift" in
  let t = D.new_net d in
  D.add_cell_out d C.Dff [| D.add_cell d C.Inv [| t |] |] ~out:t;
  let stages = Array.init 1000 (fun _ -> D.new_net d) in
  for k = 999 downto 0 do
    let prev = if k = 0 then t else stages.(k - 1) in
    D.add_cell_out d C.Dff [| prev |] ~out:stages.(k)
  done;
  D.add_output d "q" stages.(999);
  check_matches_reference "shift register" d;
  check_int "the last stage turns x" Engine.Ternary.x
    (A.value (A.run d) stages.(999))

(* the three cores of the end-to-end benchmark, at its sizes *)
let small_ridecore =
  { Cores.Ridecore_like.rob_entries = 8; phys_regs = 40; iq_entries = 4;
    pht_entries = 16; btb_entries = 4 }

let bench_cores =
  lazy
    [
      ("ibex", (Cores.Ibex_like.build ()).Cores.Ibex_like.design);
      ("cm0", (Cores.Cm0_like.build ()).Cores.Cm0_like.design);
      ( "ridecore",
        (Cores.Ridecore_like.build ~config:small_ridecore ())
          .Cores.Ridecore_like.design );
    ]

let test_cores_match_reference () =
  List.iter
    (fun (label, d) -> check_matches_reference label d)
    (Lazy.force bench_cores)

(* --- absint-backed lint rules ------------------------------------------ *)

let test_lint_absint_rules () =
  let d = D.create "lintable" in
  let q = D.new_net d in
  D.add_cell_out d C.Dff [| q |] ~out:q;
  let m = D.add_cell d C.Mux2 [| D.net_false; D.add_input d "a"; q |] in
  let r = D.add_dff d ~d:m () in
  D.add_output d "q" q;
  D.add_output d "r" r;
  let ds = Analysis.Lint.run d in
  let with_rule id = List.filter (fun x -> x.Analysis.Diag.rule = id) ds in
  (match with_rule "absint-stuck-reg" with
  | [] -> Alcotest.fail "absint-stuck-reg did not fire on a stuck register"
  | h :: _ ->
      check "stuck-reg severity" true
        (h.Analysis.Diag.severity = Analysis.Diag.Warning);
      (match h.Analysis.Diag.loc with
      | Analysis.Diag.Net { net; _ } -> check "located at a flop" true (net = q || net = r)
      | _ -> Alcotest.fail "expected a net location"));
  (match with_rule "absint-dead-write" with
  | [] -> Alcotest.fail "absint-dead-write did not fire on a rail select"
  | h :: _ ->
      check "dead-write severity" true
        (h.Analysis.Diag.severity = Analysis.Diag.Info);
      check "message names the dead arm" true
        (let msg = h.Analysis.Diag.message in
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length msg
             && (String.sub msg i n = sub || go (i + 1))
           in
           go 0
         in
         has "B-input"))

(* Per-rule finding counts on the benchmark's cores, as the
   synchronous iteration read them before the event-driven pass
   replaced it. *)
let test_lint_counts_on_cores () =
  let expected =
    [ ("ibex", (734, 186, 1)); ("cm0", (916, 516, 2)); ("ridecore", (1510, 918, 0)) ]
  in
  List.iter
    (fun (label, d) ->
      let ds = Analysis.Lint.run d in
      let count id =
        List.length (List.filter (fun x -> x.Analysis.Diag.rule = id) ds)
      in
      let tc, uc, sr = List.assoc label expected in
      check_int (label ^ " ternary-const") tc (count "ternary-const");
      check_int (label ^ " unreachable-cell") uc (count "unreachable-cell");
      check_int (label ^ " absint-stuck-reg") sr (count "absint-stuck-reg"))
    (Lazy.force bench_cores)

(* --- cutpoint insertion ------------------------------------------------ *)

let test_cutpoint_roundtrip () =
  let d = D.create "cut" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let z = D.add_cell d C.And2 [| a; b |] in
  let y = D.add_cell d C.Inv [| z |] in
  D.add_output d "y" y;
  let d', fresh = Engine.Cutpoint.apply d ~name:"cp" [| z |] in
  check_int "one fresh input" 1 (Array.length fresh);
  check "single-net cutpoint keeps the bare name" true
    (List.mem_assoc "cp" (D.inputs d'));
  check "original design untouched" true
    (not (List.mem_assoc "cp" (D.inputs d)));
  (* drive the cutpoint with the value its old driver computes: the
     cut design must be indistinguishable from the original *)
  let sim = Netlist.Sim64.create d in
  let sim' = Netlist.Sim64.create d' in
  let y' = List.assoc "y" (D.outputs d') in
  let rng = Random.State.make [| 4242 |] in
  let ok = ref true in
  for _ = 1 to 64 do
    let va = Int64.of_int (Random.State.bits rng) in
    let vb = Int64.of_int (Random.State.bits rng) in
    Netlist.Sim64.set_input sim a va;
    Netlist.Sim64.set_input sim b vb;
    Netlist.Sim64.eval sim;
    Netlist.Sim64.set_input sim' (List.assoc "a" (D.inputs d')) va;
    Netlist.Sim64.set_input sim' (List.assoc "b" (D.inputs d')) vb;
    Netlist.Sim64.set_input sim' fresh.(0) (Netlist.Sim64.read sim z);
    Netlist.Sim64.eval sim';
    if not (Int64.equal (Netlist.Sim64.read sim y) (Netlist.Sim64.read sim' y'))
    then ok := false
  done;
  check "cut design matches when the cutpoint is driven honestly" true !ok

let test_cutpoint_bus_names_and_errors () =
  let d = D.create "cutbus" in
  let a = D.add_input d "a" in
  let n1 = D.add_cell d C.Inv [| a |] in
  let n2 = D.add_cell d C.Buf [| a |] in
  D.add_output d "y" (D.add_cell d C.And2 [| n1; n2 |]);
  let d', fresh = Engine.Cutpoint.apply d ~name:"cp" [| n1; n2 |] in
  check_int "two fresh inputs" 2 (Array.length fresh);
  check "bus cutpoints are indexed" true
    (List.mem_assoc "cp[0]" (D.inputs d')
    && List.mem_assoc "cp[1]" (D.inputs d'));
  (* cutting a primary input is a caller bug, not a silent no-op *)
  (match Engine.Cutpoint.apply d ~name:"bad" [| a |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cutting a primary input must raise")

(* --- bounded equivalence checking -------------------------------------- *)

let miter_pair build2 =
  let d1 = D.create "m1" in
  let a = D.add_input d1 "a" in
  let b = D.add_input d1 "b" in
  D.add_output d1 "y" (D.add_cell d1 C.And2 [| a; b |]);
  let d2 = D.create "m2" in
  build2 d2;
  (d1, d2)

let test_equiv_equal () =
  let _, d2 =
    miter_pair (fun d2 ->
        let a = D.add_input d2 "a" in
        let b = D.add_input d2 "b" in
        (* same function, different structure: !(!(a&b)) *)
        let n = D.add_cell d2 C.Nand2 [| a; b |] in
        D.add_output d2 "y" (D.add_cell d2 C.Inv [| n |]))
  in
  let d1, _ = miter_pair (fun _ -> ()) in
  (match Engine.Equiv.bounded ~frames:3 d1 d2 with
  | Engine.Equiv.Equivalent -> ()
  | Engine.Equiv.Counterexample { frame; output } ->
      Alcotest.failf "spurious counterexample at frame %d on %s" frame output
  | Engine.Equiv.Unknown -> Alcotest.fail "budget exhausted on a 2-gate miter")

let test_equiv_counterexample () =
  let d1, d2 =
    miter_pair (fun d2 ->
        let a = D.add_input d2 "a" in
        let b = D.add_input d2 "b" in
        D.add_output d2 "y" (D.add_cell d2 C.Or2 [| a; b |]))
  in
  match Engine.Equiv.bounded ~frames:2 d1 d2 with
  | Engine.Equiv.Counterexample { output; _ } ->
      check "cex names the diverging output" true (output = "y")
  | Engine.Equiv.Equivalent -> Alcotest.fail "and vs or declared equivalent"
  | Engine.Equiv.Unknown -> Alcotest.fail "budget exhausted on a 2-gate miter"

let test_equiv_under_assumption () =
  (* d1's monitor pins a = 0, under which a&b == 0 *)
  let d1 = D.create "m1" in
  let a = D.add_input d1 "a" in
  let b = D.add_input d1 "b" in
  let ok = D.add_cell d1 C.Inv [| a |] in
  D.add_output d1 "y" (D.add_cell d1 C.And2 [| a; b |]);
  let d2 = D.create "m2" in
  D.add_output d2 "y" D.net_false;
  (match Engine.Equiv.bounded ~assume:ok ~frames:3 d1 d2 with
  | Engine.Equiv.Equivalent -> ()
  | _ -> Alcotest.fail "assumed equivalence not recognized");
  (match Engine.Equiv.bounded ~frames:2 d1 d2 with
  | Engine.Equiv.Counterexample _ -> ()
  | _ -> Alcotest.fail "unassumed inequivalence not found");
  (* disjoint output names are a contract violation *)
  let d3 = D.create "m3" in
  D.add_output d3 "z" D.net_false;
  match Engine.Equiv.bounded ~frames:1 d1 d3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "no shared outputs must raise"

let () =
  Alcotest.run "absint"
    [
      ( "fixpoint",
        [
          Alcotest.test_case "forced constants propagate" `Quick
            test_forced_constants;
          Alcotest.test_case "dead write arms" `Quick test_dead_write;
          Alcotest.test_case "shift register matches the Kleene reference"
            `Quick test_shift_register;
          Alcotest.test_case "bench cores match the Kleene reference" `Quick
            test_cores_match_reference;
        ] );
      ( "lint",
        [
          Alcotest.test_case "absint-backed rules fire" `Quick
            test_lint_absint_rules;
          Alcotest.test_case "per-rule counts on the bench cores" `Quick
            test_lint_counts_on_cores;
        ] );
      ( "cutpoint",
        [
          Alcotest.test_case "insertion round-trips under honest driving"
            `Quick test_cutpoint_roundtrip;
          Alcotest.test_case "bus naming and input rejection" `Quick
            test_cutpoint_bus_names_and_errors;
        ] );
      ( "equiv",
        [
          Alcotest.test_case "structurally different, equivalent" `Quick
            test_equiv_equal;
          Alcotest.test_case "counterexample on a real difference" `Quick
            test_equiv_counterexample;
          Alcotest.test_case "assumption-relative equivalence" `Quick
            test_equiv_under_assumption;
        ] );
    ]
