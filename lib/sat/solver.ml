(* CDCL in the MiniSat lineage, stored flat so that propagation,
   analysis and clause recording allocate nothing.

   Clause arena.  Every clause lives in one int array, [arena], and is
   named by the offset of its first word (a clause ref):

     arena.(c)             header: size lsl 2 | learnt lsl 1 | deleted
     arena.(c + 1)         aux: a learnt clause's activity (see
                           [activity_of]); for a problem clause, the
                           selector variable + 1 it was added under by
                           [add_guarded], or 0
     arena.(c + 2 ..)      the [size] literals
     arena.(c + 2 + size)  only in a problem clause longer than
                           [long_clause]: the cursor of the circular
                           replacement-watch search, a literal index in
                           [2, size)

   Watchers.  watches.(l) holds (cw, blocker) int pairs for the clauses
   watching literal l, which are inspected when l becomes false.  cw is
   the clause ref shifted left one place, with the low bit set for a
   binary clause.  The invariants:
   - literals 0 and 1 of every clause are its watched literals, so each
     clause has exactly one watcher in each of their two lists;
   - the blocker is a literal of the clause, so a true blocker means the
     clause is satisfied and its watcher is kept without reading the
     arena;
   - a binary clause's blocker is its other literal: it propagates or
     conflicts from the watcher alone, and its watchers never move;
   - a clause of three or more literals that is the reason of a
     variable has the propagated literal at position 0 (a binary reason
     may hold it at either position, so analysis skips the pivot by
     value).

   Deletion.  [reduce_db] sets a learnt clause's deleted bit, and
   propagation drops a watcher the first time it reads that bit.
   [retire] touches no clause: its ¬guard unit satisfies every clause of
   the group at level 0, so none can propagate again.  Binary watchers
   never read the arena, so a retired binary clause stays inert only
   because of that unit; a longer one finds ¬guard true at its first
   visit and moves a watch onto it.  [compact] reclaims both kinds.  It
   runs only at decision level 0, where it slides the live clauses down
   the arena and rebuilds the watch lists from literals 0 and 1.
   Level-0 assignments are permanent and analysis never expands them,
   so compaction clears their reasons instead of relocating them.

   Search.  All assignments live on the trail; reason.(v) is the clause
   that propagated v ([no_reason] for decisions, assumptions and units).
   Assumptions occupy decision levels 1..n; a conflict is never resolved
   by flipping an assumption, so unsatisfiability under assumptions
   surfaces when an assumption is false at its own establishment (or at
   level 0).  The search answers Sat as soon as the trail covers every
   variable. *)

let no_reason = -1

(* assign.(v): 0 false, 1 true, [undef] unassigned.  A literal's value is
   then [assign.(var) lxor sign]: 0 false, 1 true, 2 or 3 unassigned. *)
let undef = 2

(* Problem clauses longer than this carry a cursor and search for a new
   watch circularly from where the last search succeeded, instead of
   rescanning from literal 2 every time.  Learnt clauses always scan
   from literal 2: resuming there too doubled the conflicts on CM0. *)
let long_clause = 8

let has_cursor header = header lsr 2 > long_clause && header land 2 = 0
let clause_words header =
  2 + (header lsr 2) + if has_cursor header then 1 else 0

type t = {
  mutable arena : int array;
  mutable arena_len : int;  (* words in use *)
  mutable wasted : int;  (* words of dead clauses awaiting [compact] *)
  mutable watches : int array array;
  mutable wlen : int array;  (* ints in use in each watch list *)
  mutable assign : int array;
  mutable model : int array;
  mutable level : int array;
  mutable reason : int array;
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
  mutable group_size : int array;
      (* selector var -> live clauses added under it; -1 once retired *)
  mutable group_words : int array;  (* selector var -> their arena words *)
  mutable buf : int array;
      (* scratch: the clause being added, the learnt clause, learnt refs *)
}

type result = Sat | Unsat | Unknown

let create () =
  {
    arena = Array.make 1024 0;
    arena_len = 0;
    wasted = 0;
    watches = Array.make 4 [||];
    wlen = Array.make 4 0;
    assign = Array.make 2 undef;
    model = Array.make 2 undef;
    level = Array.make 2 0;
    reason = Array.make 2 no_reason;
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
    group_size = Array.make 2 0;
    group_words = Array.make 2 0;
    buf = Array.make 16 0;
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

(* In-place heapsort of a.(0 .. n-1) by [key], for the scratch buffer. *)
let sort_prefix (a : int array) n (key : int -> int) =
  let rec sift i n =
    let l = (2 * i) + 1 in
    if l < n then begin
      let m = if l + 1 < n && key a.(l + 1) > key a.(l) then l + 1 else l in
      if key a.(m) > key a.(i) then begin
        let t = a.(i) in
        a.(i) <- a.(m);
        a.(m) <- t;
        sift m n
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for e = n - 1 downto 1 do
    let t = a.(0) in
    a.(0) <- a.(e);
    a.(e) <- t;
    sift 0 e
  done

(* ---------------- variables and values ----------------------------- *)

let ensure_buf s n =
  if Array.length s.buf < n then
    s.buf <- Array.make (max n (2 * Array.length s.buf)) 0

let ensure_capacity s n =
  let cap = Array.length s.assign in
  if n > cap then begin
    let ncap = max (2 * cap) n in
    let grow a def =
      let a' = Array.make ncap def in
      Array.blit a 0 a' 0 cap;
      a'
    in
    s.assign <- grow s.assign undef;
    s.model <- grow s.model undef;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason no_reason;
    s.activity <- grow s.activity 0.0;
    s.polarity <- grow s.polarity false;
    s.heap_pos <- grow s.heap_pos (-1);
    s.seen <- grow s.seen false;
    s.group_size <- grow s.group_size 0;
    s.group_words <- grow s.group_words 0;
    (let w = Array.make (2 * ncap) [||] in
     Array.blit s.watches 0 w 0 (Array.length s.watches);
     s.watches <- w);
    (let w = Array.make (2 * ncap) 0 in
     Array.blit s.wlen 0 w 0 (Array.length s.wlen);
     s.wlen <- w);
    (let t = Array.make ncap 0 in
     Array.blit s.trail 0 t 0 s.trail_len;
     s.trail <- t);
    (* analysis collects at most one literal per variable, plus the UIP *)
    ensure_buf s (ncap + 1)
  end

let new_var s =
  let v = s.n_vars in
  s.n_vars <- v + 1;
  ensure_capacity s s.n_vars;
  heap_insert s v;
  v

let lit_val s l = s.assign.(l lsr 1) lxor (l land 1)

(* ---------------- trail ------------------------------------------- *)

let enqueue s l reason =
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
      let v = s.trail.(i) lsr 1 in
      s.polarity.(v) <- s.assign.(v) = 1;
      s.assign.(v) <- undef;
      heap_insert s v
    done;
    s.trail_len <- target;
    s.qhead <- target;
    s.n_levels <- lvl
  end

let new_decision_level s =
  s.trail_lim.(s.n_levels) <- s.trail_len;
  s.n_levels <- s.n_levels + 1

(* ---------------- clause arena ------------------------------------- *)

(* A learnt clause keeps its activity in its aux word as the IEEE bits
   of a non-negative float shifted right one place, so int order is
   activity order; the dropped low mantissa bit does not matter. *)
let activity_of a c =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int a.(c + 1)) 1)

let set_activity a c x =
  a.(c + 1) <-
    Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float x) 1)

let push_watch s l cw blocker =
  let n = s.wlen.(l) in
  let ws =
    let ws = s.watches.(l) in
    if n + 2 <= Array.length ws then ws
    else begin
      let ws' = Array.make (max 4 (2 * n)) 0 in
      Array.blit ws 0 ws' 0 n;
      s.watches.(l) <- ws';
      ws'
    end
  in
  ws.(n) <- cw;
  ws.(n + 1) <- blocker;
  s.wlen.(l) <- n + 2

let attach s c =
  let a = s.arena in
  let l0 = a.(c + 2) and l1 = a.(c + 3) in
  let cw = if a.(c) lsr 2 = 2 then (c lsl 1) lor 1 else c lsl 1 in
  push_watch s l0 cw l1;
  push_watch s l1 cw l0

(* Grows by half rather than doubling: the arena is the solver's largest
   block and the old copy stays on the heap until the next major
   collection. *)
let alloc s words =
  let need = s.arena_len + words in
  if need > Array.length s.arena then begin
    let a = Array.make (max need (Array.length s.arena * 3 / 2)) 0 in
    Array.blit s.arena 0 a 0 s.arena_len;
    s.arena <- a
  end;
  let c = s.arena_len in
  s.arena_len <- need;
  c

(* Appends the clause held in buf.(0 .. n-1), n >= 2, and watches it on
   its first two literals. *)
let new_clause s ~learnt ~aux n =
  let h = (n lsl 2) lor if learnt then 2 else 0 in
  let c = alloc s (clause_words h) in
  let a = s.arena in
  a.(c) <- h;
  a.(c + 1) <- aux;
  Array.blit s.buf 0 a (c + 2) n;
  if has_cursor h then a.(c + 2 + n) <- 2;
  attach s c;
  c

let dead s c =
  let h = s.arena.(c) in
  h land 1 = 1
  || h land 2 = 0
     &&
     let g = s.arena.(c + 1) in
     g > 0 && s.group_size.(g - 1) < 0

(* Level 0 only: slides live clauses down over dead ones and rebuilds
   every watch list.  Each list then holds its live watchers in arena
   order, never more than before, so no list grows. *)
let compact s =
  assert (s.n_levels = 0);
  for i = 0 to s.trail_len - 1 do
    s.reason.(s.trail.(i) lsr 1) <- no_reason
  done;
  let a = s.arena in
  let dst = ref 0 and src = ref 0 in
  while !src < s.arena_len do
    let c = !src in
    let w = clause_words a.(c) in
    if not (dead s c) then begin
      if !dst <> c then Array.blit a c a !dst w;
      dst := !dst + w
    end;
    src := c + w
  done;
  s.arena_len <- !dst;
  s.wasted <- 0;
  Array.fill s.wlen 0 (Array.length s.wlen) 0;
  let c = ref 0 in
  while !c < s.arena_len do
    attach s !c;
    c := !c + clause_words a.(!c)
  done

let maybe_compact s = if 2 * s.wasted > s.arena_len then compact s

(* ---------------- clause management -------------------------------- *)

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
  let a = s.arena in
  let x = activity_of a c +. s.cla_inc in
  set_activity a c x;
  if x > 1e20 then begin
    let c = ref 0 in
    while !c < s.arena_len do
      if a.(!c) land 2 <> 0 then set_activity a !c (activity_of a !c *. 1e-20);
      c := !c + clause_words a.(!c)
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

let rec fill_buf buf i = function
  | [] -> ()
  | l :: rest ->
      buf.(i) <- l;
      fill_buf buf (i + 1) rest

(* Adds a problem clause with the given aux word.  Returns its ref, or
   [no_reason] when nothing is stored: a tautology, a clause satisfied at
   level 0, a unit (which goes onto the trail) or the empty clause. *)
let add_clause_tracked s ~aux lits =
  List.iter
    (fun l ->
      if l lsr 1 >= s.n_vars then
        invalid_arg "Solver.add_clause: unknown variable")
    lits;
  if not s.ok then no_reason
  else begin
    assert (s.n_levels = 0);
    let n = List.length lits in
    ensure_buf s n;
    let buf = s.buf in
    fill_buf buf 0 lits;
    sort_prefix buf n Fun.id;
    (* drop duplicates; x and ¬x are adjacent once sorted *)
    let m = ref 0 and skip = ref false in
    for i = 0 to n - 1 do
      let l = buf.(i) in
      if !m = 0 || buf.(!m - 1) <> l then begin
        if !m > 0 && buf.(!m - 1) = l lxor 1 then skip := true;
        buf.(!m) <- l;
        incr m
      end
    done;
    (* drop literals false at level 0; one true literal satisfies it *)
    let k = ref 0 in
    for i = 0 to !m - 1 do
      let l = buf.(i) in
      match lit_val s l with
      | 0 -> ()
      | 1 -> skip := true
      | _ ->
          buf.(!k) <- l;
          incr k
    done;
    if !skip then no_reason
    else
      match !k with
      | 0 ->
          s.ok <- false;
          no_reason
      | 1 ->
          enqueue s buf.(0) no_reason;
          no_reason
      | k ->
          s.n_clauses <- s.n_clauses + 1;
          new_clause s ~learnt:false ~aux k
  end

let add_clause s lits = ignore (add_clause_tracked s ~aux:0 lits : int)

(* ---------------- selectors (guarded clause groups) ----------------- *)

(* A selector is an ordinary variable used as an activation literal:
   clauses added under it carry its negation, so they are vacuous
   unless the selector is assumed true in a [solve] call.  Selectors
   never gain a positive unit clause, hence a guarded clause can never
   propagate at decision level 0 and is safe to delete physically. *)

let new_selector s = Lit.pos (new_var s)

let add_guarded s ~guard lits =
  let v = Lit.var guard in
  let c = add_clause_tracked s ~aux:(v + 1) (Lit.negate guard :: lits) in
  if c <> no_reason then begin
    s.group_size.(v) <- s.group_size.(v) + 1;
    s.group_words.(v) <- s.group_words.(v) + clause_words s.arena.(c)
  end

let retire s guard =
  (* The unit makes the selector false forever, which satisfies every
     clause of the group and every learned clause that mentions it. *)
  add_clause s [ Lit.negate guard ];
  let v = Lit.var guard in
  if s.group_size.(v) > 0 then begin
    s.n_clauses <- s.n_clauses - s.group_size.(v);
    s.wasted <- s.wasted + s.group_words.(v)
  end;
  s.group_size.(v) <- -1;
  maybe_compact s

(* ---------------- propagation -------------------------------------- *)

(* Returns the conflicting clause, or [no_reason]. *)
let propagate s =
  let confl = ref no_reason in
  let a = s.arena and watches = s.watches in
  while !confl = no_reason && s.qhead < s.trail_len do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    (* p became true: clauses watching ¬p lost a watch. *)
    let np = p lxor 1 in
    let ws = watches.(np) in
    let n = s.wlen.(np) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let cw = ws.(!i) and blocker = ws.(!i + 1) in
      i := !i + 2;
      if lit_val s blocker = 1 then begin
        ws.(!j) <- cw;
        ws.(!j + 1) <- blocker;
        j := !j + 2
      end
      else if cw land 1 = 1 then begin
        ws.(!j) <- cw;
        ws.(!j + 1) <- blocker;
        j := !j + 2;
        if lit_val s blocker = 0 then begin
          confl := cw lsr 1;
          while !i < n do
            ws.(!j) <- ws.(!i);
            incr j;
            incr i
          done
        end
        else begin
          s.propagations <- s.propagations + 1;
          enqueue s blocker (cw lsr 1)
        end
      end
      else begin
        let c = cw lsr 1 in
        let h = a.(c) in
        (* a deleted clause loses this watcher: not copied back *)
        if h land 1 = 0 then begin
          let b = c + 2 in
          if a.(b) = np then begin
            a.(b) <- a.(b + 1);
            a.(b + 1) <- np
          end;
          let first = a.(b) in
          if first <> blocker && lit_val s first = 1 then begin
            ws.(!j) <- cw;
            ws.(!j + 1) <- first;
            j := !j + 2
          end
          else begin
            let size = h lsr 2 in
            let k = ref 2 in
            if not (has_cursor h) then
              while !k < size && lit_val s a.(b + !k) = 0 do
                incr k
              done
            else begin
              let cursor = a.(b + size) in
              k := cursor;
              while !k < size && lit_val s a.(b + !k) = 0 do
                incr k
              done;
              if !k = size then begin
                k := 2;
                while !k < cursor && lit_val s a.(b + !k) = 0 do
                  incr k
                done;
                if !k = cursor then k := size
              end;
              if !k < size then a.(b + size) <- !k
            end;
            if !k < size then begin
              let l = a.(b + !k) in
              a.(b + 1) <- l;
              a.(b + !k) <- np;
              push_watch s l cw first
            end
            else begin
              ws.(!j) <- cw;
              ws.(!j + 1) <- first;
              j := !j + 2;
              if lit_val s first = 0 then begin
                confl := c;
                while !i < n do
                  ws.(!j) <- ws.(!i);
                  incr j;
                  incr i
                done
              end
              else begin
                s.propagations <- s.propagations + 1;
                enqueue s first c
              end
            end
          end
        end
      end
    done;
    s.wlen.(np) <- !j
  done;
  if !confl <> no_reason then s.qhead <- s.trail_len;
  !confl

(* ---------------- conflict analysis -------------------------------- *)

(* Literal [q] of the learnt clause is implied by the others: its reason
   holds only literals already in the clause or fixed at level 0. *)
let redundant s q =
  let r = s.reason.(q lsr 1) in
  r <> no_reason
  &&
  let a = s.arena in
  let last = r + 1 + (a.(r) lsr 2) in
  let k = ref (r + 2) in
  while
    !k <= last
    &&
    let v = a.(!k) lsr 1 in
    v = q lsr 1 || s.seen.(v) || s.level.(v) = 0
  do
    incr k
  done;
  !k > last

(* 1-UIP analysis.  Leaves the learnt clause in buf.(0 .. n-1) and
   returns n: the asserting literal first, then, when n > 1, a literal
   of the backjump level. *)
let analyze s confl =
  let a = s.arena and buf = s.buf in
  let dl = s.n_levels in
  let n = ref 1 and path = ref 0 and p = ref (-1) in
  let index = ref (s.trail_len - 1) in
  let c = ref confl in
  while !c <> no_reason do
    let c0 = !c in
    if a.(c0) land 2 <> 0 then cla_bump s c0;
    for k = c0 + 2 to c0 + 1 + (a.(c0) lsr 2) do
      let q = a.(k) in
      let v = q lsr 1 in
      if q <> !p && (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= dl then incr path
        else begin
          buf.(!n) <- q;
          incr n
        end
      end
    done;
    while not s.seen.(s.trail.(!index) lsr 1) do
      decr index
    done;
    let l = s.trail.(!index) in
    decr index;
    s.seen.(l lsr 1) <- false;
    decr path;
    if !path = 0 then begin
      buf.(0) <- l lxor 1;
      c := no_reason
    end
    else begin
      c := s.reason.(l lsr 1);
      p := l
    end
  done;
  (* Minimise against direct reasons: a stable partition moves the kept
     literals to the front, leaving every collected literal in the
     buffer so that their seen marks can be cleared after. *)
  let collected = !n in
  let kept = ref 1 in
  for i = 1 to collected - 1 do
    let q = buf.(i) in
    if not (redundant s q) then begin
      buf.(i) <- buf.(!kept);
      buf.(!kept) <- q;
      incr kept
    end
  done;
  for i = 1 to collected - 1 do
    s.seen.(buf.(i) lsr 1) <- false
  done;
  let n = !kept in
  if n > 1 then begin
    let max_i = ref 1 in
    for i = 2 to n - 1 do
      if s.level.(buf.(i) lsr 1) > s.level.(buf.(!max_i) lsr 1) then max_i := i
    done;
    let t = buf.(1) in
    buf.(1) <- buf.(!max_i);
    buf.(!max_i) <- t
  end;
  n

(* Records the clause [analyze] left in the buffer and asserts its first
   literal; the caller has already backjumped. *)
let record_learnt s n =
  if n = 1 then enqueue s s.buf.(0) no_reason
  else begin
    let c = new_clause s ~learnt:true ~aux:0 n in
    cla_bump s c;
    s.n_learnts <- s.n_learnts + 1;
    s.propagations <- s.propagations + 1;
    enqueue s s.buf.(0) c
  end

let locked s c =
  let l0 = s.arena.(c + 2) in
  s.reason.(l0 lsr 1) = c && lit_val s l0 = 1

(* Deletes the less active half of the learnt clauses, sparing binary
   clauses and current reasons. *)
let reduce_db s =
  let a = s.arena in
  ensure_buf s s.n_learnts;
  let buf = s.buf in
  let n = ref 0 and c = ref 0 in
  while !c < s.arena_len do
    let h = a.(!c) in
    if h land 3 = 2 then begin
      buf.(!n) <- !c;
      incr n
    end;
    c := !c + clause_words h
  done;
  sort_prefix buf !n (fun c -> a.(c + 1));
  for i = 0 to (!n / 2) - 1 do
    let c = buf.(i) in
    if a.(c) lsr 2 > 2 && not (locked s c) then begin
      s.wasted <- s.wasted + clause_words a.(c);
      a.(c) <- a.(c) lor 1;
      s.n_learnts <- s.n_learnts - 1
    end
  done

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

(* Every unassigned variable is on the heap, and the caller has checked
   that one exists. *)
let rec pick_branch_var s =
  let v = heap_pop s in
  if s.assign.(v) = undef then v else pick_branch_var s

let solve_body ?(assumptions = []) ?(conflict_budget = -1) ?deadline s =
  let deadline = match deadline with Some t -> t | None -> infinity in
  if not s.ok then Unsat
  else if deadline < infinity && Obs.Clock.now_s () >= deadline then Unknown
  else begin
    maybe_compact s;
    let budget_start = s.conflicts in
    let assumptions = Array.of_list assumptions in
    let n_assumps = Array.length assumptions in
    (* levels exist only inside [solve]: one per assumption, repeated
       ones included, then at most one per decision *)
    if Array.length s.trail_lim <= n_assumps + s.n_vars then
      s.trail_lim <- Array.make (n_assumps + s.n_vars + 1) 0;
    let restart_count = ref 0 in
    let result = ref Unknown in
    let finished = ref false in
    let local_conflicts = ref 0 in
    let restart_budget = ref (100 * luby 0) in
    while not !finished do
      let confl = propagate s in
      if confl <> no_reason then begin
        s.conflicts <- s.conflicts + 1;
        incr local_conflicts;
        if s.n_levels = 0 then begin
          s.ok <- false;
          result := Unsat;
          finished := true
        end
        else begin
          let n = analyze s confl in
          cancel_until s (if n = 1 then 0 else s.level.(s.buf.(1) lsr 1));
          record_learnt s n;
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
      end
      else if !local_conflicts >= !restart_budget && s.n_levels > n_assumps
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
            enqueue s a no_reason
      end
      else if s.trail_len = s.n_vars then begin
        Array.blit s.assign 0 s.model 0 s.n_vars;
        result := Sat;
        finished := true
      end
      else begin
        let v = pick_branch_var s in
        s.decisions <- s.decisions + 1;
        new_decision_level s;
        enqueue s (Lit.make v s.polarity.(v)) no_reason
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
