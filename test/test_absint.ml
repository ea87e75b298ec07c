(* Tests for the abstract-interpretation dataflow engine behind the
   absint-backed lint rules, plus first coverage for [Engine.Cutpoint]
   and [Engine.Equiv].

   The soundness contract under test: a constant reported by [Absint]
   is an invariant of the design under the same [assume] the inductive
   prover uses, so the non-incremental [Oracle] must confirm every one
   of them. *)

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
   conjunction of absint constants is 1-inductive under the same
   assumption, and mutual induction is complete for conjunctive
   1-inductive sets *)
let oracle_confirms d assume consts =
  consts = []
  ||
  let proved = Oracle.prove ~assume d consts in
  same_set proved consts

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
  let ai = A.run ~assume:D.net_true d in
  check "no contradiction" false (A.contradiction ai);
  check "fixpoint iterated" true (A.iterations ai >= 1);
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
  check "oracle confirms every constant" true
    (oracle_confirms d D.net_true consts)

(* the monitor pins an input; only assume-conditioning can see the
   register behind it never leaves reset — plain ternary cannot *)
let test_assume_conditioning () =
  let d = D.create "conditioned" in
  let i = D.add_input d "i" in
  let ok = D.add_cell d C.Inv [| i |] in
  let r = D.add_dff d ~d:i () in
  D.add_output d "q" r;
  let plain = A.run ~assume:D.net_true d in
  check_int "without the monitor the register is free" Engine.Ternary.x
    (A.value plain r);
  let ai = A.run ~assume:ok d in
  check "no contradiction" false (A.contradiction ai);
  check_int "conditioning forces the input" 0 (A.value ai i);
  check_int "the register never leaves reset" 0 (A.value ai r);
  check "constant exported" true (mem_const (A.constants ai) r false);
  (match A.stuck_registers ai with
  | [ (ci, false) ] ->
      check_int "stuck register is the dff" r (D.cell d ci).D.out
  | l -> Alcotest.failf "expected one stuck register, got %d" (List.length l));
  check "oracle confirms every conditioned constant" true
    (oracle_confirms d ok (A.constants ai))

(* implication by conditioning: assuming And2 out = 1 forces both
   inputs backward, hence the Or2 forward; assuming the Or2 forces
   neither input, so the And2 stays unknown *)
let test_implies_proving () =
  let d = D.create "implies" in
  let x = D.add_input d "x" in
  let y = D.add_input d "y" in
  let a = D.add_cell d C.And2 [| x; y |] in
  let b = D.add_cell d C.Or2 [| x; y |] in
  D.add_output d "a" a;
  D.add_output d "b" b;
  let on_a = A.run ~assume:a d in
  check_int "and=1 forces x" 1 (A.value on_a x);
  check_int "and=1 forces y" 1 (A.value on_a y);
  check_int "and=1 implies or=1" 1 (A.value on_a b);
  check "or=1 exported as a constant" true
    (mem_const (A.constants on_a) b true);
  check "oracle confirms the implied constant" true
    (oracle_confirms d a (A.constants on_a));
  let on_b = A.run ~assume:b d in
  check_int "or=1 does not imply and=1" Engine.Ternary.x (A.value on_b a);
  check "and not exported under or=1" false
    (List.exists
       (function Engine.Candidate.Const (n, _) -> n = a | _ -> false)
       (A.constants on_b))

(* an unsatisfiable assumption: the engine must degrade to claiming
   nothing rather than "proving" everything *)
let test_contradiction () =
  let d = D.create "contra" in
  let a = D.add_input d "a" in
  let r = D.add_dff d ~d:a () in
  D.add_output d "q" r;
  let ai = A.run ~assume:D.net_false d in
  check "contradiction flagged" true (A.contradiction ai);
  check "no constants" true (A.constants ai = []);
  check "no stuck registers claimed" true (A.stuck_registers ai = []);
  check "no dead writes claimed" true (A.dead_writes ai = [])

let test_dead_write () =
  let d = D.create "deadwrite" in
  let s = D.add_input d "s" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let ok = D.add_cell d C.Inv [| s |] in
  let m = D.add_cell d C.Mux2 [| s; a; b |] in
  let r = D.add_dff d ~d:m () in
  D.add_output d "q" r;
  (* free select: no claim *)
  check "free select claims nothing" true
    (A.dead_writes (A.run ~assume:D.net_true d) = []);
  (* the monitor pins the select low: the B arm is dead *)
  match A.dead_writes (A.run ~assume:ok d) with
  | [ (ci, false) ] -> check_int "the register's write" r (D.cell d ci).D.out
  | l -> Alcotest.failf "expected one dead write, got %d" (List.length l)

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
          Alcotest.test_case "assume-conditioning sees through the monitor"
            `Quick test_assume_conditioning;
          Alcotest.test_case "implication proving by conditioning" `Quick
            test_implies_proving;
          Alcotest.test_case "contradiction degrades to no claims" `Quick
            test_contradiction;
          Alcotest.test_case "dead write arms" `Quick test_dead_write;
        ] );
      ( "lint",
        [
          Alcotest.test_case "absint-backed rules fire" `Quick
            test_lint_absint_rules;
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
