(* Tests for the static-analysis subsystem: the lint rule set, the
   rewire certificate, and the certificate audit.

   The seeded-fault section is the acceptance test of the lint gate:
   for every structural fault class [Faults.seed_structural] can
   inject, [Lint.run] must report exactly the promised rule id at the
   promised net/cell, and [Pipeline.run ~lint:Strict] must refuse the
   design with a located [Rejected] — never a bare exception. *)

module D = Netlist.Design
module C = Netlist.Cell
module Diag = Analysis.Diag
module Lint = Analysis.Lint
module Cert = Analysis.Certificate
module Audit = Analysis.Audit

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rules ds = List.map (fun x -> x.Diag.rule) ds
let with_rule r ds = List.filter (fun x -> x.Diag.rule = r) ds
let has_rule r ds = with_rule r ds <> []

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* --- diagnostics ------------------------------------------------------ *)

let test_diag_rendering () =
  let d =
    Diag.make ~rule:"multi-driven" ~severity:Diag.Error
      ~loc:(Diag.Net { net = 7; name = "acc_q" })
      "2 drivers: cell 3 (AND2_X1), primary input"
  in
  Alcotest.(check string) "net diagnostic"
    "error[multi-driven]: net 7 (acc_q): 2 drivers: cell 3 (AND2_X1), \
     primary input"
    (Diag.to_string d);
  let w =
    Diag.make ~rule:"bus-mismatch" ~severity:Diag.Warning
      ~loc:(Diag.Port "data") "missing [1]"
  in
  check "port diagnostic names the port" true
    (contains ~sub:"warning[bus-mismatch]: port \"data\"" (Diag.to_string w));
  check "severity order" true
    (Diag.compare_severity Diag.Error Diag.Warning > 0);
  let ds =
    [ d; w; Diag.make ~rule:"x" ~severity:Diag.Info ~loc:Diag.Whole_design "i" ]
  in
  let e, wn, i = Diag.count ds in
  check "count splits by severity" true (e = 1 && wn = 1 && i = 1);
  check_int "errors subset" 1 (List.length (Diag.errors ds))

(* --- lint: clean and degenerate designs ------------------------------- *)

(* request/acknowledge latch, same shape as examples/netlists/handshake.v *)
let clean_design () =
  let d = D.create "handshake" in
  let req = D.add_input d "req" in
  let clr = D.add_input d "clr" in
  let nclr = D.add_cell d C.Inv [| clr |] in
  let q = D.new_net d in
  let set = D.add_cell d C.And2 [| req; nclr |] in
  let hold = D.add_cell d C.And2 [| q; nclr |] in
  let data = D.add_cell d C.Or2 [| set; hold |] in
  D.add_cell_out d C.Dff [| data |] ~out:q;
  let ack = D.add_cell d C.Buf [| q |] in
  D.add_output d "ack" ack;
  D.add_output d "busy" q;
  d

let test_lint_clean_design () =
  check "handshake latch is lint-clean" true (Lint.run (clean_design ()) = [])

let test_lint_degenerate_no_crash () =
  (* empty design: only the two rail ties *)
  check "empty design is clean" true (Lint.run (D.create "empty") = []);
  (* inputs only, nothing driven, nothing read *)
  let d = D.create "inputs_only" in
  ignore (D.add_input d "a");
  ignore (D.add_input d "b");
  check "inputs-only design is clean" true (Lint.run d = []);
  (* a lone self-loop register: warned about, no Error, no crash *)
  let d = D.create "selfloop" in
  let q = D.new_net d in
  D.add_cell_out d C.Dff [| q |] ~out:q;
  D.add_output d "q" q;
  let ds = Lint.run d in
  check "self-loop register only warns" true (Diag.errors ds = []);
  check "const-feedback-reg fires" true (has_rule "const-feedback-reg" ds)

(* --- lint: one rule at a time ----------------------------------------- *)

let test_lint_multi_driven () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  D.add_output d "x" x;
  D.unsafe_add_cell_out d C.Buf [| a |] ~out:x;
  let hits = with_rule "multi-driven" (Lint.run d) in
  check_int "one finding" 1 (List.length hits);
  let hit = List.hd hits in
  check "severity Error" true (hit.Diag.severity = Diag.Error);
  (match hit.Diag.loc with
  | Diag.Net { net; _ } -> check_int "located at the doubly-driven net" x net
  | _ -> Alcotest.fail "expected a net location");
  check "message counts both drivers" true
    (contains ~sub:"2 drivers" hit.Diag.message)

let test_lint_undriven_input () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let floating = D.new_net d in
  let x = D.add_cell d C.And2 [| a; floating |] in
  D.add_output d "x" x;
  let hits = with_rule "undriven-input" (Lint.run d) in
  check_int "one finding" 1 (List.length hits);
  let hit = List.hd hits in
  check "severity Error" true (hit.Diag.severity = Diag.Error);
  (match hit.Diag.loc with
  | Diag.Cell { kind; _ } ->
      check "located at the consuming AND2" true (kind = C.name C.And2)
  | _ -> Alcotest.fail "expected a cell location");
  check "message names the pin" true (contains ~sub:"A2" hit.Diag.message)

let test_lint_undriven_output () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  D.add_output d "x" x;
  D.add_output d "y" (D.new_net d);
  let hits = with_rule "undriven-output" (Lint.run d) in
  check_int "one finding" 1 (List.length hits);
  match (List.hd hits).Diag.loc with
  | Diag.Port nm -> check "located at the port" true (nm = "y")
  | _ -> Alcotest.fail "expected a port location"

let test_lint_comb_cycle () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let loop_net = D.new_net d in
  let x = D.add_cell d C.And2 [| a; loop_net |] in
  D.add_cell_out d C.Inv [| x |] ~out:loop_net;
  D.add_output d "x" x;
  let ds = Lint.run d in
  let hits = with_rule "comb-cycle" ds in
  check "cycle reported" true (hits <> []);
  let hit = List.hd hits in
  check "severity Error" true (hit.Diag.severity = Diag.Error);
  (match hit.Diag.loc with
  | Diag.Cell _ -> ()
  | _ -> Alcotest.fail "expected a cell location");
  check "witness path rendered" true (contains ~sub:"->" hit.Diag.message);
  (* the guarded ternary rule must not blow up on the cyclic design *)
  check "no ternary findings on a cyclic design" true
    (not (has_rule "ternary-const" ds))

let test_lint_unreachable_cell () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let live = D.add_cell d C.Inv [| a |] in
  let dead = D.add_cell d C.Inv [| live |] in
  ignore (D.add_cell d C.Buf [| dead |]);
  D.add_output d "x" live;
  let hits = with_rule "unreachable-cell" (Lint.run d) in
  check_int "both dead cells flagged, ties excused" 2 (List.length hits);
  List.iter
    (fun h -> check "warning severity" true (h.Diag.severity = Diag.Warning))
    hits

let test_lint_const_feedback_reg () =
  let d = D.create "t" in
  let q = D.new_net d in
  D.add_cell_out d C.Dff [| q |] ~out:q;
  let r = D.add_dff d ~d:D.net_true () in
  let y = D.add_cell d C.And2 [| q; r |] in
  D.add_output d "y" y;
  let hits = with_rule "const-feedback-reg" (Lint.run d) in
  check_int "self-loop and rail-tied register both flagged" 2
    (List.length hits);
  check "self-loop message mentions the reset value" true
    (List.exists (fun h -> contains ~sub:"reset value" h.Diag.message) hits);
  check "rail-tie message mentions the rail" true
    (List.exists (fun h -> contains ~sub:"rail" h.Diag.message) hits)

let test_lint_bus_groups () =
  let d = D.create "t" in
  let g0 = D.add_input d "g[0]" in
  let g2 = D.add_input d "g[2]" in
  ignore (D.add_input d "b");
  ignore (D.add_input d "b[0]");
  let x = D.add_cell d C.And2 [| g0; g2 |] in
  D.add_output d "o[3]" x;
  D.add_output d "o[3]" x;
  let hits = with_rule "bus-mismatch" (Lint.run d) in
  check "gap reported" true
    (List.exists
       (fun h ->
         (match h.Diag.loc with Diag.Port "g" -> true | _ -> false)
         && contains ~sub:"missing [1]" h.Diag.message)
       hits);
  check "scalar clash reported" true
    (List.exists
       (fun h ->
         (match h.Diag.loc with Diag.Port "b" -> true | _ -> false)
         && contains ~sub:"scalar" h.Diag.message)
       hits);
  check "duplicate bit reported" true
    (List.exists
       (fun h ->
         (match h.Diag.loc with Diag.Port "o" -> true | _ -> false)
         && contains ~sub:"[3] twice" h.Diag.message)
       hits)

let test_lint_ternary_consts () =
  (* a register fed by the 0-rail is forced constant, and so is the
     AND gate that reads it; both are dead candidates the miner can
     skip *)
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let r = D.add_dff d ~d:D.net_false () in
  let y = D.add_cell d C.And2 [| a; r |] in
  D.add_output d "y" y;
  let ds = Lint.run d in
  let infos = with_rule "ternary-const" ds in
  check "forced-constant nets reported" true (List.length infos >= 2);
  List.iter
    (fun h ->
      check "info severity" true (h.Diag.severity = Diag.Info);
      match h.Diag.loc with
      | Diag.Net { net; _ } ->
          check "only r and y are forced" true (net = r || net = y)
      | _ -> Alcotest.fail "expected a net location")
    infos

let test_well_formed_out_of_range () =
  let d = D.create "t" in
  let a = D.add_input d "a" in
  let x = D.add_cell d C.Inv [| a |] in
  D.add_output d "x" x;
  (* [substitute] rewrites reads without range validation — exactly the
     malformed shape [well_formed] exists to refuse *)
  let bad = D.substitute d (fun n -> if n = a then 9999 else n) in
  let ds = Lint.run bad in
  check "at least the Inv read is flagged" true (ds <> []);
  check "only well-formedness findings, later rules never ran" true
    (List.for_all (fun r -> r = "net-out-of-range") (rules ds));
  List.iter
    (fun h -> check "error severity" true (h.Diag.severity = Diag.Error))
    ds

(* --- lint: the per-call context ------------------------------------------ *)

(* from the test directory under [dune runtest], or from the root *)
let example_netlists () =
  let dir =
    List.find Sys.file_exists [ "../examples/netlists"; "examples/netlists" ]
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".v")
  |> List.map (fun f -> (f, Netlist.Verilog.read_file (Filename.concat dir f)))

let random_designs () =
  List.map
    (fun seed ->
      (Printf.sprintf "random seed %d" seed, Netlist.Generate.random ~seed ()))
    [ 1; 2; 3; 5; 8 ]

(* Sharing one context must not change what any rule reports: the full
   run is the rule-by-rule runs, each on its own fresh context. *)
let test_lint_shared_context_is_per_rule_union () =
  let examples = example_netlists () in
  check "the example netlists were found" true (examples <> []);
  let total = ref 0 in
  List.iter
    (fun (label, d) ->
      let all = Lint.run d in
      total := !total + List.length all;
      let one_by_one =
        List.concat_map (fun r -> Lint.run ~rules:[ r ] d) Lint.all_rules
      in
      check (label ^ ": full run = concatenation of single-rule runs") true
        (all = one_by_one))
    (examples @ random_designs ());
  check "some design has findings to compare" true (!total > 0)

let test_lint_context_is_per_call () =
  (* two different designs back to back: each gets its own findings *)
  let d1 = D.create "t1" in
  let a = D.add_input d1 "a" in
  let r = D.add_dff d1 ~d:D.net_false () in
  D.add_output d1 "y" (D.add_cell d1 C.And2 [| a; r |]);
  let d2 = clean_design () in
  let l1 = Lint.run d1 in
  let l2 = Lint.run d2 in
  check "the first design has dataflow findings" true
    (has_rule "ternary-const" l1);
  check "the second design is clean after the first" true (l2 = []);
  check "the first design again, after the second" true (Lint.run d1 = l1);
  (* a design is mutable: linting it again right after an edit sees
     the edit *)
  check "the second design is still clean" true (Lint.run d2 = []);
  let req = List.assoc "req" (D.inputs d2) in
  let x = D.add_cell d2 C.Inv [| req |] in
  D.add_output d2 "x" x;
  D.unsafe_add_cell_out d2 C.Buf [| req |] ~out:x;
  check "the mutated design shows its new driver" true
    (has_rule "multi-driven" (Lint.run d2))

(* How often [f] ran the abstract interpreter. *)
let absint_runs f =
  let since = Obs.counters () in
  ignore (f ());
  match List.assoc_opt "absint.runs" (Obs.counters_delta ~since) with
  | Some v -> int_of_float v
  | None -> 0

(* --- seeded structural faults: the lint gate acceptance test ----------- *)

let seed_target () =
  let d = D.create "seedme" in
  let a = D.add_input d "a" in
  let b = D.add_input d "b" in
  let x = D.add_cell d C.And2 [| a; b |] in
  let y = D.add_cell d C.Or2 [| x; a |] in
  let q = D.add_dff d ~d:y () in
  D.add_output d "q" q;
  d

(* For multi-driven the expected coordinate is the net; for comb-cycle
   and undriven-input it is the consuming cell (the floating net of an
   undriven input has no name to point at). *)
let location_matches (s : Pdat.Faults.seeded) (h : Diag.t) =
  match (s.Pdat.Faults.cell, s.Pdat.Faults.net, h.Diag.loc) with
  | Some c, _, Diag.Cell { cell; _ } -> cell = c
  | None, Some n, Diag.Net { net; _ } -> net = n
  | _ -> false

let test_seeded_faults_linted () =
  let d = seed_target () in
  List.iter
    (fun which ->
      let name = Pdat.Faults.structural_name which in
      List.iter
        (fun seed ->
          match Pdat.Faults.seed_structural which ~seed d with
          | None -> Alcotest.failf "%s: no eligible site on the target" name
          | Some s ->
              check (name ^ ": the input design is untouched") true
                (Lint.run d = []);
              let errs = Diag.errors (Lint.run s.Pdat.Faults.seeded) in
              let hits = with_rule s.Pdat.Faults.rule errs in
              check
                (Printf.sprintf "%s (seed %d): promised rule fires" name seed)
                true (hits <> []);
              check
                (Printf.sprintf "%s (seed %d): located as promised" name seed)
                true
                (List.exists (location_matches s) hits))
        [ 1; 2; 3; 7 ])
    Pdat.Faults.structural_all

let test_seeded_faults_rejected_by_pipeline () =
  let d = seed_target () in
  List.iter
    (fun which ->
      let name = Pdat.Faults.structural_name which in
      match Pdat.Faults.seed_structural which ~seed:3 d with
      | None -> Alcotest.failf "%s: no eligible site" name
      | Some s -> (
          let bad = s.Pdat.Faults.seeded in
          match
            Pdat.Pipeline.run ~lint:Lint.Strict ~design:bad
              ~env:(Pdat.Environment.unconstrained bad) ()
          with
          | _ ->
              Alcotest.failf "%s: strict pipeline accepted a seeded fault" name
          | exception Pdat.Pipeline.Rejected ds ->
              check (name ^ ": rejection cites the seeded rule") true
                (has_rule s.Pdat.Faults.rule ds);
              check (name ^ ": every rejection diagnostic is an error") true
                (Diag.errors ds = ds)))
    Pdat.Faults.structural_all

(* --- certificates and the audit ---------------------------------------- *)

(* a AND !a is provably 0, and so is the register it feeds *)
let const_design () =
  let d = D.create "cd" in
  let a = D.add_input d "a" in
  let na = D.add_cell d C.Inv [| a |] in
  let z = D.add_cell d C.And2 [| a; na |] in
  let q = D.add_dff d ~d:z () in
  D.add_output d "q" q;
  (d, z, q)

let audit ?pre_lint ~original ~rewired ~proved cert =
  Audit.run ?pre_lint ~original ~rewired ~proved ~certificate:cert ()

let test_certificate_const_edits () =
  let d, z, q = const_design () in
  let proved =
    [ Engine.Candidate.Const (z, false); Engine.Candidate.Const (q, false) ]
  in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  check_int "one edit per redirected net" 2 (Cert.length cert);
  List.iter
    (fun (e : Cert.edit) ->
      check "edit cites a proved invariant" true
        (List.exists (Engine.Candidate.equal e.Cert.justification) proved);
      check "constant edits tie to the 0 rail" true
        (e.Cert.target = D.net_false && e.Cert.via = Cert.Direct))
    cert.Cert.edits;
  check "audit accepts the honest certificate" true
    (audit ~original:d ~rewired ~proved cert = []);
  (* [apply] is literally the certified rewiring minus the certificate *)
  let plain = Pdat.Rewire.apply d proved in
  check "apply = fst apply_certified (audited replay agrees)" true
    (audit ~original:d ~rewired:plain ~proved cert = [])

let test_certificate_implies_direct () =
  let d = D.create "imp" in
  let a = D.add_input d "a" in
  let b = D.add_cell d C.Buf [| a |] in
  let y = D.add_cell d C.And2 [| a; b |] in
  let q = D.add_dff d ~d:y () in
  D.add_output d "q" q;
  let cell = Option.get (D.driver d y) in
  let proved = [ Engine.Candidate.Implies { cell; a; b } ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  check_int "one edit" 1 (Cert.length cert);
  let e = List.hd cert.Cert.edits in
  check "AND2 collapses onto the dominating input" true
    (e.Cert.net = y && e.Cert.target = a && e.Cert.via = Cert.Direct);
  check_int "no cells added for a direct collapse" (D.num_cells d)
    (D.num_cells rewired);
  check "audit accepts" true (audit ~original:d ~rewired ~proved cert = [])

let test_certificate_implies_fresh_inverter () =
  let d = D.create "nimp" in
  let a = D.add_input d "a" in
  let b = D.add_cell d C.Buf [| a |] in
  let y = D.add_cell d C.Nand2 [| a; b |] in
  let q = D.add_dff d ~d:y () in
  D.add_output d "q" q;
  let cell = Option.get (D.driver d y) in
  let proved = [ Engine.Candidate.Implies { cell; a; b } ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  check_int "one edit" 1 (Cert.length cert);
  check_int "the fresh inverter was appended" (D.num_cells d + 1)
    (D.num_cells rewired);
  (match (List.hd cert.Cert.edits).Cert.via with
  | Cert.Fresh_inv { cell = ic; out; input } ->
      check "inverter recorded with its pins" true
        (ic = D.num_cells d
        && input = a
        && out = (List.hd cert.Cert.edits).Cert.target)
  | Cert.Direct -> Alcotest.fail "expected a fresh-inverter edit");
  check "audit accepts" true (audit ~original:d ~rewired ~proved cert = [])

let test_audit_rejects_corrupted_justification () =
  let d, z, q = const_design () in
  let proved =
    [ Engine.Candidate.Const (z, false); Engine.Candidate.Const (q, false) ]
  in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  (* the acceptance scenario: flip one cited invariant id — the edit
     now rests on an invariant nobody proved *)
  let corrupt =
    {
      Cert.edits =
        List.map
          (fun (e : Cert.edit) ->
            if e.Cert.net = z then
              { e with Cert.justification = Engine.Candidate.Const (z, true) }
            else e)
          cert.Cert.edits;
    }
  in
  let ds = audit ~original:d ~rewired ~proved corrupt in
  check "corrupted certificate rejected" true (ds <> []);
  check "rejection rule is cert-unjustified" true
    (has_rule "cert-unjustified" ds);
  List.iter
    (fun h -> check "errors only" true (h.Diag.severity = Diag.Error))
    ds

let test_audit_rejects_forged_edit () =
  let d, z, q = const_design () in
  let proved = [ Engine.Candidate.Const (z, false) ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  (* an extra edit citing a real invariant that does not justify it:
     Const z cannot justify touching q *)
  let forged =
    {
      Cert.edits =
        cert.Cert.edits
        @ [
            {
              Cert.net = q;
              target = D.net_false;
              via = Cert.Direct;
              justification = Engine.Candidate.Const (z, false);
            };
          ];
    }
  in
  let ds = audit ~original:d ~rewired ~proved forged in
  check "forged edit rejected" true (has_rule "cert-mismatch" ds)

let test_audit_rejects_dropped_edit () =
  let d, z, q = const_design () in
  let proved =
    [ Engine.Candidate.Const (z, false); Engine.Candidate.Const (q, false) ]
  in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  ignore q;
  let dropped = { Cert.edits = [ List.hd cert.Cert.edits ] } in
  let ds = audit ~original:d ~rewired ~proved dropped in
  check "a certificate that explains less than the diff is rejected" true
    (has_rule "cert-netlist-mismatch" ds)

let test_audit_rejects_miswired_netlist () =
  let d, z, _q = const_design () in
  let proved = [ Engine.Candidate.Const (z, false) ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  check "honest certificate accepted first" true
    (audit ~original:d ~rewired ~proved cert = []);
  (* tie the register's rewired data pin to the opposite rail behind
     the certificate's back *)
  let bad = D.copy rewired in
  let dff = ref (-1) in
  D.iter_cells bad (fun i c -> if c.D.kind = C.Dff then dff := i);
  check "found the register" true (!dff >= 0);
  let c = D.cell bad !dff in
  check "its data pin was rewired to the 0 rail" true
    (c.D.ins.(0) = D.net_false);
  D.replace_cell bad !dff ~init:c.D.init C.Dff [| D.net_true |];
  let ds = audit ~original:d ~rewired:bad ~proved cert in
  check "uncertified netlist edit rejected" true
    (has_rule "cert-netlist-mismatch" ds)

let test_audit_empty_certificate () =
  let d, _, _ = const_design () in
  check "nothing proved, nothing rewired: empty certificate accepted" true
    (audit ~original:d ~rewired:(D.copy d) ~proved:[] Cert.empty = []);
  check_int "empty certificate has no edits" 0 (Cert.length Cert.empty)

let test_audit_rejects_implies_on_another_cell () =
  let d = D.create "imp" in
  let a = D.add_input d "a" in
  let b = D.add_cell d C.Buf [| a |] in
  let y = D.add_cell d C.And2 [| a; b |] in
  let q = D.add_dff d ~d:y () in
  D.add_output d "q" q;
  let cell = Option.get (D.driver d y) in
  let proved = [ Engine.Candidate.Implies { cell; a; b } ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  (* same a and b as the proved implication, but cited on the Buf cell *)
  let other = Option.get (D.driver d b) in
  let corrupt =
    {
      Cert.edits =
        List.map
          (fun (e : Cert.edit) ->
            {
              e with
              Cert.justification =
                Engine.Candidate.Implies { cell = other; a; b };
            })
          cert.Cert.edits;
    }
  in
  let ds = audit ~original:d ~rewired ~proved corrupt in
  check_int "the edit's justification is unproved" 1
    (List.length (with_rule "cert-unjustified" ds))

(* [const_design] plus an undriven output, an Error before any
   rewiring, and a rewired copy that gains a second driver on [na]
   behind the certificate's back. *)
let lint_regression_fixture () =
  let d = D.create "lr" in
  let a = D.add_input d "a" in
  let na = D.add_cell d C.Inv [| a |] in
  let z = D.add_cell d C.And2 [| a; na |] in
  let q = D.add_dff d ~d:z () in
  D.add_output d "q" q;
  D.add_output d "floating" (D.new_net d);
  let proved = [ Engine.Candidate.Const (z, false) ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  let bad = D.copy rewired in
  D.unsafe_add_cell_out bad C.Buf [| a |] ~out:na;
  (d, bad, proved, cert)

let test_audit_lint_regression () =
  let d, bad, proved, cert = lint_regression_fixture () in
  check "the original already has an undriven output" true
    (has_rule "undriven-output" (Diag.errors (Lint.run d)));
  List.iter
    (fun (label, pre_lint) ->
      let ds = audit ?pre_lint ~original:d ~rewired:bad ~proved cert in
      let hits = with_rule "lint-regression" ds in
      check_int (label ^ ": one lint regression") 1 (List.length hits);
      let hit = List.hd hits in
      check (label ^ ": the message names the underlying rule") true
        (contains ~sub:"multi-driven: " hit.Diag.message);
      check (label ^ ": the pre-existing error is not reported again") true
        (not
           (List.exists
              (fun h -> contains ~sub:"undriven-output" h.Diag.message)
              hits)))
    [ ("computed", None); ("given", Some (Lint.run d)) ]

let test_absint_runs_counted () =
  let d, z, _q = const_design () in
  check_int "one fixpoint for a full lint run" 1
    (absint_runs (fun () -> Lint.run d));
  check_int "none for the structural rules" 0
    (absint_runs (fun () -> Lint.run ~rules:Lint.structural_rules d));
  let proved = [ Engine.Candidate.Const (z, false) ] in
  let rewired, cert = Pdat.Rewire.apply_certified d proved in
  check_int "none for the audit" 0
    (absint_runs (fun () -> audit ~original:d ~rewired ~proved cert));
  let pre_lint = Lint.run d in
  check_int "none for the audit given the input lint" 0
    (absint_runs (fun () -> audit ~pre_lint ~original:d ~rewired ~proved cert))

let () =
  Alcotest.run "analysis"
    [
      ( "diag",
        [
          Alcotest.test_case "rendering" `Quick test_diag_rendering;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean design" `Quick test_lint_clean_design;
          Alcotest.test_case "degenerate designs never crash" `Quick
            test_lint_degenerate_no_crash;
          Alcotest.test_case "multi-driven" `Quick test_lint_multi_driven;
          Alcotest.test_case "undriven input" `Quick test_lint_undriven_input;
          Alcotest.test_case "undriven output" `Quick test_lint_undriven_output;
          Alcotest.test_case "combinational cycle" `Quick test_lint_comb_cycle;
          Alcotest.test_case "unreachable cells" `Quick
            test_lint_unreachable_cell;
          Alcotest.test_case "constant-feedback registers" `Quick
            test_lint_const_feedback_reg;
          Alcotest.test_case "bus groupings" `Quick test_lint_bus_groups;
          Alcotest.test_case "ternary constants" `Quick
            test_lint_ternary_consts;
          Alcotest.test_case "net-out-of-range stops the run" `Quick
            test_well_formed_out_of_range;
          Alcotest.test_case "shared context = rule-by-rule runs" `Quick
            test_lint_shared_context_is_per_rule_union;
          Alcotest.test_case "context is per call" `Quick
            test_lint_context_is_per_call;
          Alcotest.test_case "one absint fixpoint per run" `Quick
            test_absint_runs_counted;
        ] );
      ( "seeded faults",
        [
          Alcotest.test_case "linter reports rule and location" `Quick
            test_seeded_faults_linted;
          Alcotest.test_case "strict pipeline rejects every class" `Quick
            test_seeded_faults_rejected_by_pipeline;
        ] );
      ( "audit",
        [
          Alcotest.test_case "constant edits certified" `Quick
            test_certificate_const_edits;
          Alcotest.test_case "direct implication collapse" `Quick
            test_certificate_implies_direct;
          Alcotest.test_case "inverting collapse records the inverter" `Quick
            test_certificate_implies_fresh_inverter;
          Alcotest.test_case "corrupted justification rejected" `Quick
            test_audit_rejects_corrupted_justification;
          Alcotest.test_case "forged edit rejected" `Quick
            test_audit_rejects_forged_edit;
          Alcotest.test_case "dropped edit rejected" `Quick
            test_audit_rejects_dropped_edit;
          Alcotest.test_case "miswired netlist rejected" `Quick
            test_audit_rejects_miswired_netlist;
          Alcotest.test_case "empty certificate" `Quick
            test_audit_empty_certificate;
          Alcotest.test_case "implication cited on the wrong cell rejected"
            `Quick test_audit_rejects_implies_on_another_cell;
          Alcotest.test_case "lint regression reported once" `Quick
            test_audit_lint_regression;
        ] );
    ]
