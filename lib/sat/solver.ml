(* CDCL in the MiniSat lineage.  The invariants that matter:
   - lits.(0) and lits.(1) of every clause are the watched literals;
     watches.(l) lists the clauses currently watching literal l.
   - A clause is inspected when its watched literal becomes false.
   - All assignments live on the trail; reason.(v) is the clause that
     propagated v (None for decisions and assumptions).
   - For a reason clause, lits.(0) is the literal it propagated.
   - Assumptions occupy decision levels 1..n; a conflict is never
     resolved by flipping an assumption, so unsatisfiability under
     assumptions surfaces when an assumption is false at its own
     establishment (or at level 0). *)

type clause = {
  mutable lits : int array;
  mutable act : float;
  learnt : bool;
  mutable deleted : bool;
}

type vec_clause = { mutable data : clause array; mutable len : int }

let dummy_clause = { lits = [||]; act = 0.0; learnt = false; deleted = true }

let vc_create () = { data = Array.make 4 dummy_clause; len = 0 }

let vc_push v c =
  if v.len = Array.length v.data then begin
    let data = Array.make (2 * v.len) dummy_clause in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- c;
  v.len <- v.len + 1

type t = {
  mutable clauses : clause list;
  mutable learnts : clause list;
  mutable watches : vec_clause array;
  mutable assign : int array;  (* var -> -1 undef / 0 false / 1 true *)
  mutable model : int array;
  mutable level : int array;
  mutable reason : clause option array;
  mutable activity : float array;
  mutable polarity : bool array;
  mutable heap : int array;
  mutable heap_pos : int array;
  mutable heap_len : int;
  mutable seen : bool array;
  mutable trail : int array;
  mutable trail_len : int;
  mutable trail_lim : int array;  (* trail length at entry to each level *)
  mutable n_levels : int;
  mutable qhead : int;
  mutable n_vars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable n_clauses : int;
  mutable n_learnts : int;
  mutable max_learnts : float;
  mutable rng : Random.State.t;
  guarded : (int, clause list) Hashtbl.t;
      (* selector var -> problem clauses retired together with it *)
  mutable n_dead : int;  (* deleted problem clauses awaiting compaction *)
}

type result = Sat | Unsat | Unknown

let create () =
  {
    clauses = [];
    learnts = [];
    watches = Array.init 4 (fun _ -> vc_create ());
    assign = Array.make 2 (-1);
    model = Array.make 2 (-1);
    level = Array.make 2 0;
    reason = Array.make 2 None;
    activity = Array.make 2 0.0;
    polarity = Array.make 2 false;
    heap = Array.make 2 0;
    heap_pos = Array.make 2 (-1);
    heap_len = 0;
    seen = Array.make 2 false;
    trail = Array.make 16 0;
    trail_len = 0;
    trail_lim = Array.make 16 0;
    n_levels = 0;
    qhead = 0;
    n_vars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    n_clauses = 0;
    n_learnts = 0;
    max_learnts = 8192.0;
    rng = Random.State.make [| 91648253 |];
    guarded = Hashtbl.create 64;
    n_dead = 0;
  }

let set_seed s seed = s.rng <- Random.State.make [| seed |]
let num_vars s = s.n_vars
let num_conflicts s = s.conflicts
let num_clauses s = s.n_clauses

(* ---------------- variable order heap (max-heap on activity) ------- *)

let heap_less s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_len && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    if s.heap_len = Array.length s.heap then begin
      let heap = Array.make (2 * s.heap_len) 0 in
      Array.blit s.heap 0 heap 0 s.heap_len;
      s.heap <- heap
    end;
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s (s.heap_len - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_len > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_len);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let heap_bubble_up s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

(* ---------------- variables and values ----------------------------- *)

let ensure_capacity s n =
  let cap = Array.length s.assign in
  if n > cap then begin
    let ncap = max (2 * cap) n in
    let grow_int a def =
      let a' = Array.make ncap def in
      Array.blit a 0 a' 0 cap;
      a'
    in
    s.assign <- grow_int s.assign (-1);
    s.model <- grow_int s.model (-1);
    s.level <- grow_int s.level 0;
    (let a = Array.make ncap None in
     Array.blit s.reason 0 a 0 cap;
     s.reason <- a);
    (let a = Array.make ncap 0.0 in
     Array.blit s.activity 0 a 0 cap;
     s.activity <- a);
    (let a = Array.make ncap false in
     Array.blit s.polarity 0 a 0 cap;
     s.polarity <- a);
    s.heap_pos <- grow_int s.heap_pos (-1);
    (let a = Array.make ncap false in
     Array.blit s.seen 0 a 0 cap;
     s.seen <- a);
    (let w = Array.init (2 * ncap) (fun _ -> vc_create ()) in
     Array.blit s.watches 0 w 0 (Array.length s.watches);
     s.watches <- w);
    (let t = Array.make ncap 0 in
     Array.blit s.trail 0 t 0 s.trail_len;
     s.trail <- t);
    let tl = Array.make (ncap + 1) 0 in
    Array.blit s.trail_lim 0 tl 0 s.n_levels;
    s.trail_lim <- tl
  end

let new_var s =
  let v = s.n_vars in
  s.n_vars <- v + 1;
  ensure_capacity s s.n_vars;
  heap_insert s v;
  v

let lit_val s l =
  let v = s.assign.(l lsr 1) in
  if v < 0 then -1 else v lxor (l land 1)

(* ---------------- trail ------------------------------------------- *)

let enqueue s l reason =
  if reason <> None then s.propagations <- s.propagations + 1;
  let v = l lsr 1 in
  s.assign.(v) <- (l land 1) lxor 1;
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_len) <- l;
  s.trail_len <- s.trail_len + 1

let cancel_until s lvl =
  if s.n_levels > lvl then begin
    let target = s.trail_lim.(lvl) in
    for i = s.trail_len - 1 downto target do
      let l = s.trail.(i) in
      let v = l lsr 1 in
      s.polarity.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- -1;
      s.reason.(v) <- None;
      heap_insert s v
    done;
    s.trail_len <- target;
    s.qhead <- target;
    s.n_levels <- lvl
  end

let new_decision_level s =
  s.trail_lim.(s.n_levels) <- s.trail_len;
  s.n_levels <- s.n_levels + 1

(* ---------------- clause management -------------------------------- *)

let watch s l c = vc_push s.watches.(l) c

let attach_clause s c =
  watch s c.lits.(0) c;
  watch s c.lits.(1) c

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.n_vars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_bubble_up s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    List.iter (fun c -> c.act <- c.act *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* Returns the clause object actually stored, when one is: simplified
   or satisfied clauses (and units, which go straight onto the trail)
   allocate nothing and return [None]. *)
let add_clause_tracked s lits =
  List.iter
    (fun l ->
      if l lsr 1 >= s.n_vars then
        invalid_arg "Solver.add_clause: unknown variable")
    lits;
  if not s.ok then None
  else begin
    assert (s.n_levels = 0);
    let lits = List.sort_uniq compare lits in
    let rec tautology = function
      | a :: b :: _ when b = a lxor 1 -> true
      | _ :: rest -> tautology rest
      | [] -> false
    in
    if tautology lits || List.exists (fun l -> lit_val s l = 1) lits then None
    else
      let lits = List.filter (fun l -> lit_val s l <> 0) lits in
      match lits with
      | [] ->
          s.ok <- false;
          None
      | [ l ] ->
          enqueue s l None;
          None
      | _ ->
          let c =
            { lits = Array.of_list lits; act = 0.0; learnt = false; deleted = false }
          in
          attach_clause s c;
          s.clauses <- c :: s.clauses;
          s.n_clauses <- s.n_clauses + 1;
          Some c
  end

let add_clause s lits = ignore (add_clause_tracked s lits)

(* ---------------- selectors (guarded clause groups) ----------------- *)

(* A selector is an ordinary variable used as an activation literal:
   clauses added under it carry its negation, so they are vacuous
   unless the selector is assumed true in a [solve] call.  Selectors
   never gain a positive unit clause, hence a guarded clause can never
   propagate at decision level 0 and is safe to delete physically. *)

let new_selector s = Lit.pos (new_var s)

let add_guarded s ~guard lits =
  match add_clause_tracked s (Lit.negate guard :: lits) with
  | None -> ()
  | Some c ->
      let v = Lit.var guard in
      let prev = try Hashtbl.find s.guarded v with Not_found -> [] in
      Hashtbl.replace s.guarded v (c :: prev)

let retire s guard =
  (* The unit clause makes the selector false forever, turning any
     learned clause that mentions it vacuous; the problem clauses it
     guarded are deleted outright rather than left satisfied. *)
  add_clause s [ Lit.negate guard ];
  let v = Lit.var guard in
  (match Hashtbl.find_opt s.guarded v with
  | None -> ()
  | Some cs ->
      Hashtbl.remove s.guarded v;
      List.iter
        (fun c ->
          if not c.deleted then begin
            c.deleted <- true;
            s.n_clauses <- s.n_clauses - 1;
            s.n_dead <- s.n_dead + 1
          end)
        cs);
  (* Amortized compaction: watch lists self-clean during propagation,
     but the clause list itself is swept only when dead clauses pile
     up, keeping [retire] O(group size) amortized. *)
  if s.n_dead > 64 && s.n_dead > s.n_clauses then begin
    s.clauses <- List.filter (fun c -> not c.deleted) s.clauses;
    s.n_dead <- 0
  end

(* ---------------- propagation -------------------------------------- *)

exception Conflict of clause

let propagate s =
  try
    while s.qhead < s.trail_len do
      let p = s.trail.(s.qhead) in
      s.qhead <- s.qhead + 1;
      (* p became true: clauses watching ¬p lost a watch. *)
      let np = p lxor 1 in
      let ws = s.watches.(np) in
      let j = ref 0 in
      let i = ref 0 in
      while !i < ws.len do
        let c = ws.data.(!i) in
        incr i;
        if not c.deleted then begin
          if c.lits.(0) = np then begin
            c.lits.(0) <- c.lits.(1);
            c.lits.(1) <- np
          end;
          if lit_val s c.lits.(0) = 1 then begin
            ws.data.(!j) <- c;
            incr j
          end
          else begin
            let n = Array.length c.lits in
            let found = ref false in
            let k = ref 2 in
            while (not !found) && !k < n do
              if lit_val s c.lits.(!k) <> 0 then begin
                c.lits.(1) <- c.lits.(!k);
                c.lits.(!k) <- np;
                watch s c.lits.(1) c;
                found := true
              end;
              incr k
            done;
            if not !found then begin
              ws.data.(!j) <- c;
              incr j;
              if lit_val s c.lits.(0) = 0 then begin
                while !i < ws.len do
                  ws.data.(!j) <- ws.data.(!i);
                  incr j;
                  incr i
                done;
                ws.len <- !j;
                s.qhead <- s.trail_len;
                raise (Conflict c)
              end
              else enqueue s c.lits.(0) (Some c)
            end
          end
        end
      done;
      ws.len <- !j
    done;
    None
  with Conflict c -> Some c

(* ---------------- conflict analysis -------------------------------- *)

let analyze s confl =
  let learnt = ref [] in
  let path = ref 0 in
  let p = ref (-1) in
  let index = ref (s.trail_len - 1) in
  let confl = ref confl in
  let dl = s.n_levels in
  let uip = ref 0 in
  let continue = ref true in
  while !continue do
    let c = !confl in
    if c.learnt then cla_bump s c;
    let start = if !p < 0 then 0 else 1 in
    for k = start to Array.length c.lits - 1 do
      let q = c.lits.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= dl then incr path else learnt := q :: !learnt
      end
    done;
    let rec find_next () =
      let l = s.trail.(!index) in
      decr index;
      if s.seen.(l lsr 1) then l else find_next ()
    in
    let l = find_next () in
    let v = l lsr 1 in
    s.seen.(v) <- false;
    decr path;
    if !path = 0 then begin
      uip := Lit.negate l;
      continue := false
    end
    else begin
      (match s.reason.(v) with
      | Some c -> confl := c
      | None -> assert false);
      p := l
    end
  done;
  (* Cheap recursive-free minimization against direct reasons. *)
  let learnt_list = !learnt in
  List.iter (fun q -> s.seen.(q lsr 1) <- true) learnt_list;
  let redundant q =
    match s.reason.(q lsr 1) with
    | None -> false
    | Some c ->
        Array.for_all
          (fun l ->
            l lsr 1 = q lsr 1 || s.seen.(l lsr 1) || s.level.(l lsr 1) = 0)
          c.lits
  in
  let kept = List.filter (fun q -> not (redundant q)) learnt_list in
  List.iter (fun q -> s.seen.(q lsr 1) <- false) learnt_list;
  let blevel = List.fold_left (fun acc q -> max acc s.level.(q lsr 1)) 0 kept in
  (!uip :: kept, blevel)

let record_learnt s lits =
  match lits with
  | [] -> s.ok <- false
  | [ l ] -> enqueue s l None
  | l0 :: rest ->
      let rest_arr = Array.of_list rest in
      let max_i = ref 0 in
      Array.iteri
        (fun i q ->
          if s.level.(q lsr 1) > s.level.(rest_arr.(!max_i) lsr 1) then max_i := i)
        rest_arr;
      let tmp = rest_arr.(0) in
      rest_arr.(0) <- rest_arr.(!max_i);
      rest_arr.(!max_i) <- tmp;
      let c =
        {
          lits = Array.append [| l0 |] rest_arr;
          act = 0.0;
          learnt = true;
          deleted = false;
        }
      in
      attach_clause s c;
      cla_bump s c;
      s.learnts <- c :: s.learnts;
      s.n_learnts <- s.n_learnts + 1;
      enqueue s l0 (Some c)

let locked s c =
  Array.length c.lits > 0
  &&
  let v = c.lits.(0) lsr 1 in
  s.assign.(v) >= 0
  && (match s.reason.(v) with Some c' -> c' == c | None -> false)

let reduce_db s =
  let learnts =
    List.filter (fun c -> not c.deleted) s.learnts
    |> List.sort (fun a b -> compare a.act b.act)
  in
  let n = List.length learnts in
  let killed = ref 0 in
  List.iteri
    (fun i c ->
      if i < n / 2 && Array.length c.lits > 2 && not (locked s c) then begin
        c.deleted <- true;
        incr killed
      end)
    learnts;
  s.learnts <- List.filter (fun c -> not c.deleted) learnts;
  s.n_learnts <- s.n_learnts - !killed

(* ---------------- search -------------------------------------------- *)

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby x =
  let size = ref 1 and seq = ref 0 in
  while !size < x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let pick_branch_var s =
  let rec go () =
    if s.heap_len = 0 then -1
    else
      let v = heap_pop s in
      if s.assign.(v) < 0 then v else go ()
  in
  go ()

let solve_body ?(assumptions = []) ?(conflict_budget = -1) ?deadline s =
  let deadline = match deadline with Some t -> t | None -> infinity in
  if not s.ok then Unsat
  else if deadline < infinity && Obs.Clock.now_s () >= deadline then Unknown
  else begin
    let budget_start = s.conflicts in
    let assumptions = Array.of_list assumptions in
    let n_assumps = Array.length assumptions in
    let restart_count = ref 0 in
    let result = ref Unknown in
    let finished = ref false in
    let local_conflicts = ref 0 in
    let restart_budget = ref (100 * luby 0) in
    while not !finished do
      match propagate s with
      | Some confl ->
          s.conflicts <- s.conflicts + 1;
          incr local_conflicts;
          if s.n_levels = 0 then begin
            s.ok <- false;
            result := Unsat;
            finished := true
          end
          else begin
            let lits, blevel = analyze s confl in
            cancel_until s blevel;
            record_learnt s lits;
            var_decay s;
            cla_decay s;
            if (conflict_budget >= 0
                && s.conflicts - budget_start >= conflict_budget)
               || (deadline < infinity && Obs.Clock.now_s () >= deadline)
            then begin
              result := Unknown;
              finished := true
            end
          end
      | None ->
          if !local_conflicts >= !restart_budget && s.n_levels > n_assumps
          then begin
            cancel_until s n_assumps;
            incr restart_count;
            local_conflicts := 0;
            restart_budget := 100 * luby !restart_count
          end
          else if float_of_int s.n_learnts >= s.max_learnts then begin
            reduce_db s;
            s.max_learnts <- s.max_learnts *. 1.2
          end
          else if s.n_levels < n_assumps then begin
            let a = assumptions.(s.n_levels) in
            match lit_val s a with
            | 1 -> new_decision_level s
            | 0 ->
                result := Unsat;
                finished := true
            | _ ->
                new_decision_level s;
                enqueue s a None
          end
          else begin
            let v = pick_branch_var s in
            if v < 0 then begin
              Array.blit s.assign 0 s.model 0 s.n_vars;
              result := Sat;
              finished := true
            end
            else begin
              s.decisions <- s.decisions + 1;
              new_decision_level s;
              enqueue s (Lit.make v s.polarity.(v)) None
            end
          end
    done;
    cancel_until s 0;
    !result
  end

(* PDAT_CHAOS=slow-solver[:sec] delays every solve — the synthetic
   regression the CI perf gate proves it can catch.  Parsed here (the
   sat layer cannot see Engine.Chaos) with the same comma-separated
   re-parse-per-injection-point convention. *)
let chaos_slow_solver () =
  match Sys.getenv_opt "PDAT_CHAOS" with
  | None | Some "" -> ()
  | Some specs ->
      String.split_on_char ',' specs
      |> List.iter (fun spec ->
             let spec = String.trim spec in
             let delay =
               if spec = "slow-solver" then Some 0.002
               else
                 match String.index_opt spec ':' with
                 | Some i when String.sub spec 0 i = "slow-solver" ->
                     float_of_string_opt
                       (String.sub spec (i + 1) (String.length spec - i - 1))
                 | _ -> None
             in
             match delay with
             | Some d when d > 0. -> (
                 try ignore (Unix.select [] [] [] d)
                 with Unix.Unix_error _ -> ())
             | _ -> ())

let solve ?assumptions ?conflict_budget ?deadline s =
  let c0 = s.conflicts and d0 = s.decisions and p0 = s.propagations in
  let t0 = Obs.Clock.now_s () in
  chaos_slow_solver ();
  let r = solve_body ?assumptions ?conflict_budget ?deadline s in
  let dt = Obs.Clock.now_s () -. t0 in
  Obs.observe "sat.call_s" dt;
  Obs.Attr.charge_call ~wall_s:dt ~conflicts:(s.conflicts - c0);
  Obs.add_int "sat.calls" 1;
  Obs.add_int "sat.conflicts" (s.conflicts - c0);
  Obs.add_int "sat.decisions" (s.decisions - d0);
  Obs.add_int "sat.propagations" (s.propagations - p0);
  r

type snapshot = {
  vars : int;
  clauses : int;
  learnts : int;
  conflicts : int;
  decisions : int;
  propagations : int;
}

let snapshot s =
  {
    vars = s.n_vars;
    clauses = s.n_clauses;
    learnts = s.n_learnts;
    conflicts = s.conflicts;
    decisions = s.decisions;
    propagations = s.propagations;
  }

let value s v = s.model.(v) = 1

let lit_value s l =
  if Lit.sign l then value s (Lit.var l) else not (value s (Lit.var l))

