(* Unit and property tests for the CDCL solver.  The property tests
   cross-check against brute-force enumeration on small instances. *)

let lit = Sat.Lit.of_int

let mk n_vars =
  let s = Sat.Solver.create () in
  for _ = 1 to n_vars do
    ignore (Sat.Solver.new_var s)
  done;
  s

let check_result = Alcotest.(check bool)

let is_sat = function Sat.Solver.Sat -> true | Sat.Solver.Unsat | Sat.Solver.Unknown -> false
let is_unsat = function Sat.Solver.Unsat -> true | Sat.Solver.Sat | Sat.Solver.Unknown -> false

let test_trivial_sat () =
  let s = mk 2 in
  Sat.Solver.add_clause s [ lit 1; lit 2 ];
  check_result "sat" true (is_sat (Sat.Solver.solve s))

let test_trivial_unsat () =
  let s = mk 1 in
  Sat.Solver.add_clause s [ lit 1 ];
  Sat.Solver.add_clause s [ lit (-1) ];
  check_result "unsat" true (is_unsat (Sat.Solver.solve s))

let test_empty_clause () =
  let s = mk 1 in
  Sat.Solver.add_clause s [];
  check_result "unsat" true (is_unsat (Sat.Solver.solve s))

let test_unit_propagation_chain () =
  let s = mk 5 in
  (* 1 -> 2 -> 3 -> 4 -> 5, assert 1, check model *)
  Sat.Solver.add_clause s [ lit 1 ];
  for i = 1 to 4 do
    Sat.Solver.add_clause s [ lit (-i); lit (i + 1) ]
  done;
  check_result "sat" true (is_sat (Sat.Solver.solve s));
  for i = 0 to 4 do
    check_result (Printf.sprintf "v%d" i) true (Sat.Solver.value s i)
  done

let test_model_satisfies () =
  let s = mk 4 in
  let clauses =
    [ [ 1; 2 ]; [ -1; 3 ]; [ -2; -3 ]; [ 2; 3; 4 ]; [ -4; 1 ] ]
  in
  List.iter (fun c -> Sat.Solver.add_clause s (List.map lit c)) clauses;
  check_result "sat" true (is_sat (Sat.Solver.solve s));
  List.iter
    (fun c ->
      let holds = List.exists (fun i -> Sat.Solver.lit_value s (lit i)) c in
      check_result "clause satisfied" true holds)
    clauses

(* Pigeonhole: n+1 pigeons in n holes is unsatisfiable. *)
let pigeonhole n =
  let s = Sat.Solver.create () in
  let var = Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Sat.Solver.new_var s)) in
  for p = 0 to n do
    Sat.Solver.add_clause s (List.init n (fun h -> Sat.Lit.pos var.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Sat.Solver.add_clause s [ Sat.Lit.neg var.(p1).(h); Sat.Lit.neg var.(p2).(h) ]
      done
    done
  done;
  s

let test_pigeonhole () =
  check_result "php(4) unsat" true (is_unsat (Sat.Solver.solve (pigeonhole 4)));
  check_result "php(6) unsat" true (is_unsat (Sat.Solver.solve (pigeonhole 6)))

let test_assumptions () =
  let s = mk 3 in
  Sat.Solver.add_clause s [ lit (-1); lit 2 ];
  Sat.Solver.add_clause s [ lit (-2); lit 3 ];
  Sat.Solver.add_clause s [ lit (-3) ];
  (* assuming 1 forces 3 which is forbidden *)
  check_result "unsat under assumption" true
    (is_unsat (Sat.Solver.solve ~assumptions:[ lit 1 ] s));
  (* solver still usable, and satisfiable without the assumption *)
  check_result "sat without assumption" true (is_sat (Sat.Solver.solve s));
  check_result "v1 must be false" false (Sat.Solver.value s 0)

let test_incremental () =
  let s = mk 3 in
  Sat.Solver.add_clause s [ lit 1; lit 2 ];
  check_result "sat 1" true (is_sat (Sat.Solver.solve s));
  Sat.Solver.add_clause s [ lit (-1) ];
  check_result "sat 2" true (is_sat (Sat.Solver.solve s));
  check_result "v2 true" true (Sat.Solver.value s 1);
  Sat.Solver.add_clause s [ lit (-2) ];
  check_result "unsat 3" true (is_unsat (Sat.Solver.solve s));
  (* once root-level unsat, stays unsat *)
  check_result "unsat 4" true (is_unsat (Sat.Solver.solve s))

let test_budget () =
  (* php(7) should exceed a tiny conflict budget *)
  let s = pigeonhole 7 in
  match Sat.Solver.solve ~conflict_budget:5 s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Sat -> Alcotest.fail "php(7) cannot be sat"
  | Sat.Solver.Unsat -> ()
(* solving it fully within 5 conflicts would be miraculous but sound *)

let test_deadline () =
  (* an already-expired deadline yields Unknown without burning time;
     the solver stays usable afterwards *)
  let s = pigeonhole 7 in
  (match Sat.Solver.solve ~deadline:(Obs.Clock.now_s () -. 1.) s with
  | Sat.Solver.Unknown -> ()
  | Sat.Solver.Sat | Sat.Solver.Unsat ->
      Alcotest.fail "expired deadline must report Unknown");
  (* a generous deadline must not change the verdict *)
  let s4 = pigeonhole 4 in
  check_result "php(4) still unsat under a far deadline" true
    (is_unsat (Sat.Solver.solve ~deadline:(Obs.Clock.now_s () +. 3600.) s4))

let test_dimacs_roundtrip () =
  let src = "c example\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  let n, clauses = Sat.Dimacs.parse src in
  Alcotest.(check int) "vars" 3 n;
  Alcotest.(check int) "clauses" 2 (List.length clauses);
  let n', clauses' = Sat.Dimacs.parse (Sat.Dimacs.to_string (n, clauses)) in
  Alcotest.(check int) "vars rt" n n';
  Alcotest.(check bool) "clauses rt" true (clauses = clauses')

let test_dimacs_duplicate_literals () =
  let warnings = ref [] in
  let n, clauses =
    Sat.Dimacs.parse
      ~on_warning:(fun w -> warnings := w :: !warnings)
      "p cnf 2 2\n1 1 -2 0\n-1 2 0\n"
  in
  Alcotest.(check int) "vars" 2 n;
  Alcotest.(check int) "clauses kept" 2 (List.length clauses);
  (* the duplicate is dropped, the clause is otherwise intact *)
  Alcotest.(check int) "deduped clause width" 2
    (List.length (List.hd clauses));
  (match !warnings with
  | [ w ] ->
      Alcotest.(check int) "warning line" 2 w.Sat.Dimacs.line;
      Alcotest.(check string) "warning token" "1" w.Sat.Dimacs.token;
      Alcotest.(check bool) "reason mentions the duplicate" true
        (String.length w.Sat.Dimacs.reason > 0)
  | ws -> Alcotest.failf "expected exactly one warning, got %d" (List.length ws));
  (* opposite-polarity literals are not duplicates *)
  let warnings = ref [] in
  let _, tauto =
    Sat.Dimacs.parse
      ~on_warning:(fun w -> warnings := w :: !warnings)
      "p cnf 1 1\n1 -1 0\n"
  in
  Alcotest.(check int) "tautology untouched" 2
    (List.length (List.hd tauto));
  Alcotest.(check int) "no warning for x or !x" 0 (List.length !warnings);
  (* default callback: duplicates are still silently deduplicated *)
  let _, silent = Sat.Dimacs.parse "p cnf 2 1\n2 2 2 1 0\n" in
  Alcotest.(check int) "silent dedup" 2 (List.length (List.hd silent))

let expect_parse_error ?token src ~line =
  match Sat.Dimacs.parse src with
  | _ -> Alcotest.fail (Printf.sprintf "parser accepted malformed input %S" src)
  | exception Sat.Dimacs.Parse_error { line = l; token = t; _ } ->
      Alcotest.(check int) "error line" line l;
      Option.iter (fun tok -> Alcotest.(check string) "error token" tok t) token

let test_dimacs_errors () =
  (* clause before the problem line *)
  expect_parse_error "c hi\n1 -2 0\n" ~line:2 ~token:"1";
  (* malformed problem lines *)
  expect_parse_error "p cnf three 2\n" ~line:1 ~token:"p cnf three 2";
  expect_parse_error "p dimacs 3 2\n" ~line:1;
  expect_parse_error "p cnf -3 2\n" ~line:1;
  (* duplicate problem line *)
  expect_parse_error "p cnf 3 1\np cnf 3 1\n1 0\n" ~line:2;
  (* non-integer literal, with the right line under comments/blanks *)
  expect_parse_error "p cnf 3 1\nc note\n\n1 x 0\n" ~line:4 ~token:"x";
  (* literal out of the declared range *)
  expect_parse_error "p cnf 3 1\n1 -4 0\n" ~line:2 ~token:"-4";
  (* well-formed input still parses *)
  let n, clauses = Sat.Dimacs.parse "c ok\np cnf 2 2\n1 2 0\n-1 0\n" in
  Alcotest.(check int) "vars" 2 n;
  Alcotest.(check int) "clauses" 2 (List.length clauses)

(* --- brute force cross-check ---------------------------------------- *)

let brute_force n_vars clauses =
  let rec go assignment v =
    if v = n_vars then
      List.for_all
        (fun c ->
          List.exists
            (fun l ->
              let value = (assignment lsr Sat.Lit.var l) land 1 = 1 in
              if Sat.Lit.sign l then value else not value)
            c)
        clauses
    else go assignment (v + 1) || go (assignment lor (1 lsl v)) (v + 1)
  in
  go 0 0

let random_cnf rng n_vars n_clauses =
  List.init n_clauses (fun _ ->
      let len = 1 + Random.State.int rng 3 in
      List.init len (fun _ ->
          Sat.Lit.make (Random.State.int rng n_vars) (Random.State.bool rng)))

let test_vs_brute_force () =
  let rng = Random.State.make [| 7 |] in
  for _case = 1 to 200 do
    let n_vars = 3 + Random.State.int rng 8 in
    let n_clauses = 2 + Random.State.int rng 25 in
    let clauses = random_cnf rng n_vars n_clauses in
    let s = mk n_vars in
    List.iter (Sat.Solver.add_clause s) clauses;
    let expected = brute_force n_vars clauses in
    (match Sat.Solver.solve s with
    | Sat.Solver.Sat ->
        if not expected then Alcotest.fail "solver said SAT, brute force UNSAT";
        List.iter
          (fun c ->
            if not (List.exists (Sat.Solver.lit_value s) c) then
              Alcotest.fail "model does not satisfy a clause")
          clauses
    | Sat.Solver.Unsat ->
        if expected then Alcotest.fail "solver said UNSAT, brute force SAT"
    | Sat.Solver.Unknown -> Alcotest.fail "unexpected Unknown without budget")
  done

let test_assumptions_vs_brute_force () =
  let rng = Random.State.make [| 13 |] in
  for _case = 1 to 100 do
    let n_vars = 3 + Random.State.int rng 6 in
    let clauses = random_cnf rng n_vars (2 + Random.State.int rng 15) in
    let n_assumps = 1 + Random.State.int rng 3 in
    let assumptions =
      List.init n_assumps (fun _ ->
          Sat.Lit.make (Random.State.int rng n_vars) (Random.State.bool rng))
    in
    let s = mk n_vars in
    List.iter (Sat.Solver.add_clause s) clauses;
    let expected =
      brute_force n_vars (clauses @ List.map (fun l -> [ l ]) assumptions)
    in
    (match Sat.Solver.solve ~assumptions s with
    | Sat.Solver.Sat -> if not expected then Alcotest.fail "SAT vs brute UNSAT (assumptions)"
    | Sat.Solver.Unsat -> if expected then Alcotest.fail "UNSAT vs brute SAT (assumptions)"
    | Sat.Solver.Unknown -> Alcotest.fail "unexpected Unknown");
    (* the solver must remain reusable afterwards *)
    ignore (Sat.Solver.solve s)
  done

(* --- assumption cores, selector guards, clause reuse ------------------- *)

(* php(n) with every clause guarded by pigeon [p]'s selector: the
   instance is unsat exactly when every selector is assumed (drop any
   one and that pigeon simply goes unplaced) *)
let guarded_pigeonhole n =
  let s = Sat.Solver.create () in
  let var =
    Array.init (n + 1) (fun _ -> Array.init n (fun _ -> Sat.Solver.new_var s))
  in
  let sels = Array.init (n + 1) (fun _ -> Sat.Solver.new_selector s) in
  for p = 0 to n do
    Sat.Solver.add_guarded s ~guard:sels.(p)
      (List.init n (fun h -> Sat.Lit.pos var.(p).(h)))
  done;
  for h = 0 to n - 1 do
    for p1 = 0 to n do
      for p2 = p1 + 1 to n do
        Sat.Solver.add_guarded s ~guard:sels.(p1)
          [ Sat.Lit.neg var.(p1).(h); Sat.Lit.neg var.(p2).(h) ]
      done
    done
  done;
  (s, Array.to_list sels)

let test_usable_after_assumption_unsat () =
  let s = mk 2 in
  Sat.Solver.add_clause s [ lit 1; lit 2 ];
  Sat.Solver.add_clause s [ lit (-1); lit 2 ];
  check_result "unsat assuming -2" true
    (is_unsat (Sat.Solver.solve ~assumptions:[ lit (-2) ] s));
  check_result "sat afterwards" true (is_sat (Sat.Solver.solve s));
  check_result "v2 true in the model" true (Sat.Solver.value s 1);
  (* Unknown from an exhausted conflict budget must not wedge the
     solver either: a later unrestricted solve still terminates with
     the real verdict *)
  let s7 = pigeonhole 7 in
  (match Sat.Solver.solve ~conflict_budget:3 s7 with
  | Sat.Solver.Unknown | Sat.Solver.Unsat -> ()
  | Sat.Solver.Sat -> Alcotest.fail "php(7) cannot be sat");
  check_result "full verdict after a budget timeout" true
    (is_unsat (Sat.Solver.solve s7))

let test_learned_clause_reuse () =
  (* the whole point of the incremental prover: clauses learned during
     an assumption-based solve survive, so repeating the same query
     costs strictly fewer conflicts *)
  let s, sels = guarded_pigeonhole 6 in
  let c0 = Sat.Solver.num_conflicts s in
  check_result "unsat under all selectors" true
    (is_unsat (Sat.Solver.solve ~assumptions:sels s));
  let c1 = Sat.Solver.num_conflicts s - c0 in
  check_result "first solve actually fought" true (c1 > 0);
  check_result "still unsat on repeat" true
    (is_unsat (Sat.Solver.solve ~assumptions:sels s));
  let c2 = Sat.Solver.num_conflicts s - c0 - c1 in
  check_result "repeat query costs strictly fewer conflicts" true (c2 < c1)

let test_selector_guard_and_retire () =
  let s = mk 1 in
  let g = Sat.Solver.new_selector s in
  Sat.Solver.add_guarded s ~guard:g [ lit 1 ];
  Sat.Solver.add_guarded s ~guard:g [ lit (-1) ];
  (* guarded clauses are inert without the assumption... *)
  check_result "sat without the guard" true (is_sat (Sat.Solver.solve s));
  (* ...and bite under it *)
  check_result "unsat under the guard" true
    (is_unsat (Sat.Solver.solve ~assumptions:[ g ] s));
  let before = Sat.Solver.num_clauses s in
  Sat.Solver.retire s g;
  check_result "guarded clauses physically deleted" true
    (Sat.Solver.num_clauses s < before);
  check_result "sat after retirement" true (is_sat (Sat.Solver.solve s));
  check_result "a retired guard can never be re-activated" true
    (is_unsat (Sat.Solver.solve ~assumptions:[ g ] s))

(* --- the incremental API against brute force --------------------------- *)

(* A random session interleaves add_clause, add_guarded, retire and
   solve over at most 10 data variables.  The reference keeps the
   clauses still active: the permanent ones, each live selector's group
   and the ¬guard unit of every retired selector.  Sessions with 8 or
   more data variables add clauses wider than the solver's circular
   watch-search threshold (8 literals), and retiring groups out of
   these small clause sets keeps triggering arena compaction. *)

type session = {
  solver : Sat.Solver.t;
  data_vars : int;
  mutable perm : Sat.Lit.t list list;
  mutable live : (Sat.Lit.t * Sat.Lit.t list list) list;
      (* selector, guarded bodies (without ¬selector) *)
  mutable retired : Sat.Lit.t list;
}

let random_body rng d =
  if d >= 8 && Random.State.int rng 4 = 0 then begin
    (* distinct variables: a wide clause with no duplicate to merge *)
    let vars = Array.init d Fun.id in
    for i = d - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = vars.(i) in
      vars.(i) <- vars.(j);
      vars.(j) <- t
    done;
    List.init (min d (8 + Random.State.int rng 3)) (fun i ->
        Sat.Lit.make vars.(i) (Random.State.bool rng))
  end
  else
    List.init (1 + Random.State.int rng 3) (fun _ ->
        Sat.Lit.make (Random.State.int rng d) (Random.State.bool rng))

(* Brute force over the data variables and live selectors: literals
   become bit masks, a retired selector is false, and [None] means an
   assumption asks for a retired selector to be true. *)
let reference_sat sess assumptions =
  let live = Array.of_list (List.map fst sess.live) in
  let bit v =
    if v < sess.data_vars then Some v
    else
      let rec find k =
        if k = Array.length live then None
        else if Sat.Lit.var live.(k) = v then Some (sess.data_vars + k)
        else find (k + 1)
      in
      find 0
  in
  let mask c =
    List.fold_left
      (fun (p, n) l ->
        match bit (Sat.Lit.var l) with
        | Some b when Sat.Lit.sign l -> (p lor (1 lsl b), n)
        | Some b -> (p, n lor (1 lsl b))
        | None -> invalid_arg "active clause mentions a retired selector")
      (0, 0) c
  in
  let active =
    sess.perm
    @ List.concat_map
        (fun (g, bodies) -> List.map (fun b -> Sat.Lit.negate g :: b) bodies)
        sess.live
  in
  let retired_true =
    List.exists
      (fun a -> Sat.Lit.sign a && bit (Sat.Lit.var a) = None)
      assumptions
  in
  let units =
    List.filter_map
      (fun a -> if bit (Sat.Lit.var a) = None then None else Some [ a ])
      assumptions
  in
  let clauses = Array.of_list (List.map mask (active @ units)) in
  let n_bits = sess.data_vars + Array.length live in
  let satisfies x =
    Array.for_all (fun (p, n) -> x land p <> 0 || lnot x land n <> 0) clauses
  in
  let rec search x = x < 1 lsl n_bits && (satisfies x || search (x + 1)) in
  (not retired_true) && search 0

let check_model sess assumptions =
  let holds c = List.exists (Sat.Solver.lit_value sess.solver) c in
  let fail what = Alcotest.failf "model violates %s" what in
  List.iter (fun c -> if not (holds c) then fail "a permanent clause") sess.perm;
  List.iter
    (fun (g, bodies) ->
      List.iter
        (fun b -> if not (holds (Sat.Lit.negate g :: b)) then fail "a guarded clause")
        bodies)
    sess.live;
  List.iter
    (fun g -> if Sat.Solver.lit_value sess.solver g then fail "a retired selector")
    sess.retired;
  List.iter
    (fun a -> if not (Sat.Solver.lit_value sess.solver a) then fail "an assumption")
    assumptions

let run_session rng =
  let d = 3 + Random.State.int rng 8 in
  let sess =
    { solver = mk d; data_vars = d; perm = []; live = []; retired = [] }
  in
  let s = sess.solver in
  for _op = 1 to 20 + Random.State.int rng 30 do
    match Random.State.int rng 100 with
    | r when r < 25 ->
        let c = random_body rng d in
        Sat.Solver.add_clause s c;
        sess.perm <- c :: sess.perm
    | r when r < 50 ->
        let body = random_body rng d in
        let g, bodies, rest =
          match sess.live with
          | (g, bodies) :: rest when List.length sess.live >= 3 || Random.State.bool rng ->
              (g, bodies, rest)
          | _ -> (Sat.Solver.new_selector s, [], sess.live)
        in
        Sat.Solver.add_guarded s ~guard:g body;
        sess.live <- rest @ [ (g, body :: bodies) ]
    | r when r < 65 -> (
        match sess.live with
        | [] -> ()
        | live ->
            let g, _ = List.nth live (Random.State.int rng (List.length live)) in
            Sat.Solver.retire s g;
            sess.live <- List.filter (fun (g', _) -> g' <> g) live;
            sess.retired <- g :: sess.retired)
    | _ -> (
        let selectors = List.map fst sess.live @ sess.retired in
        let pick () =
          if selectors <> [] && Random.State.int rng 3 = 0 then
            let g = List.nth selectors (Random.State.int rng (List.length selectors)) in
            if Random.State.int rng 4 = 0 then Sat.Lit.negate g else g
          else Sat.Lit.make (Random.State.int rng d) (Random.State.bool rng)
        in
        let assumptions = List.init (Random.State.int rng 6) (fun _ -> pick ()) in
        let budget =
          if Random.State.int rng 5 = 0 then Some (Random.State.int rng 3) else None
        in
        let expected = reference_sat sess assumptions in
        match Sat.Solver.solve ~assumptions ?conflict_budget:budget s with
        | Sat.Solver.Sat ->
            if not expected then Alcotest.fail "solver said SAT, brute force UNSAT";
            check_model sess assumptions
        | Sat.Solver.Unsat ->
            if expected then Alcotest.fail "solver said UNSAT, brute force SAT"
        | Sat.Solver.Unknown ->
            if budget = None then Alcotest.fail "Unknown without a budget")
  done

let test_incremental_vs_brute_force () =
  let rng = Random.State.make [| 2024 |] in
  for _session = 1 to 400 do
    run_session rng
  done

(* --- propagation allocates nothing ------------------------------------- *)

(* x1 -> x2 -> ... -> xn: assuming x1 propagates the whole chain. *)
let implication_chain n =
  let s = mk n in
  for i = 1 to n - 1 do
    Sat.Solver.add_clause s [ lit (-i); lit (i + 1) ]
  done;
  s

let test_propagation_allocates_nothing () =
  let minor_words n =
    let s = implication_chain n in
    let solve () =
      let before = Gc.minor_words () in
      let r = Sat.Solver.solve ~assumptions:[ lit 1 ] s in
      let after = Gc.minor_words () in
      check_result "chain sat" true (is_sat r);
      check_result "chain end forced" true (Sat.Solver.value s (n - 1));
      after -. before
    in
    ignore (solve () : float);
    (* the fewest of three calls: the process-wide latency histogram
       that every solve feeds doubles its sample array now and then *)
    List.fold_left min infinity (List.init 3 (fun _ -> solve ()))
  in
  let small = minor_words 1_000 and large = minor_words 50_000 in
  Alcotest.(check (float 0.)) "same minor words for 1k and 50k chains" small large;
  check_result
    (Printf.sprintf "per-call constant is small (%.0f words)" small)
    true (small < 256.)

let qcheck_tseitin =
  (* Tseitin-encode a random 3-gate function two different ways and
     check equisatisfiability of the miter being 1/0. *)
  QCheck.Test.make ~name:"tseitin and/or/xor against semantics" ~count:200
    QCheck.(triple bool bool bool)
    (fun (a, b, c) ->
      let s = Sat.Solver.create () in
      let va = Sat.Solver.new_var s
      and vb = Sat.Solver.new_var s
      and vc = Sat.Solver.new_var s in
      let vand = Sat.Solver.new_var s
      and vor = Sat.Solver.new_var s
      and vxor = Sat.Solver.new_var s
      and vmux = Sat.Solver.new_var s in
      Sat.Tseitin.and2 s ~out:(Sat.Lit.pos vand) (Sat.Lit.pos va) (Sat.Lit.pos vb);
      Sat.Tseitin.or2 s ~out:(Sat.Lit.pos vor) (Sat.Lit.pos va) (Sat.Lit.pos vb);
      Sat.Tseitin.xor2 s ~out:(Sat.Lit.pos vxor) (Sat.Lit.pos va) (Sat.Lit.pos vb);
      Sat.Tseitin.mux s ~out:(Sat.Lit.pos vmux) ~sel:(Sat.Lit.pos vc)
        ~a:(Sat.Lit.pos va) ~b:(Sat.Lit.pos vb);
      Sat.Tseitin.const s (Sat.Lit.pos va) a;
      Sat.Tseitin.const s (Sat.Lit.pos vb) b;
      Sat.Tseitin.const s (Sat.Lit.pos vc) c;
      match Sat.Solver.solve s with
      | Sat.Solver.Sat ->
          Sat.Solver.value s vand = (a && b)
          && Sat.Solver.value s vor = (a || b)
          && Sat.Solver.value s vxor = (a <> b)
          && Sat.Solver.value s vmux = (if c then b else a)
      | Sat.Solver.Unsat | Sat.Solver.Unknown -> false)

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "unit chain" `Quick test_unit_propagation_chain;
          Alcotest.test_case "model satisfies" `Quick test_model_satisfies;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "conflict budget" `Quick test_budget;
          Alcotest.test_case "wall-clock deadline" `Quick test_deadline;
          Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "dimacs located errors" `Quick test_dimacs_errors;
          Alcotest.test_case "dimacs duplicate literals" `Quick
            test_dimacs_duplicate_literals;
          Alcotest.test_case "vs brute force" `Quick test_vs_brute_force;
          Alcotest.test_case "assumptions vs brute force" `Quick
            test_assumptions_vs_brute_force;
        ] );
      ( "incremental-api",
        [
          Alcotest.test_case "usable after assumption unsat and timeouts"
            `Quick test_usable_after_assumption_unsat;
          Alcotest.test_case "learned clauses persist across solves" `Quick
            test_learned_clause_reuse;
          Alcotest.test_case "selector guards activate and retire" `Quick
            test_selector_guard_and_retire;
          Alcotest.test_case "random sessions vs brute force" `Quick
            test_incremental_vs_brute_force;
          Alcotest.test_case "propagation allocates nothing" `Quick
            test_propagation_allocates_nothing;
        ] );
      ( "tseitin",
        [ QCheck_alcotest.to_alcotest qcheck_tseitin ] );
    ]
