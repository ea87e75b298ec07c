(** The RIDECORE-class core: a 2-way out-of-order RV32IM core with
    register renaming (paper Table II, second row).

    Built to reproduce the paper's scalability experiment: an
    order-of-magnitude more gates than the in-order cores, dominated by
    out-of-order bookkeeping structures — a 96-entry physical register
    file, a 64-entry reorder buffer, a unified issue queue, G-share
    branch prediction with an 8-entry BTB, speculative and committed
    rename tables — none of which shrink when the supported ISA does,
    which is exactly why PDAT's relative savings are muted here while
    the absolute savings remain comparable to Ibex (paper section
    VII-C).

    Microarchitectural simplifications versus RIDECORE proper (all
    documented in DESIGN.md): single-issue execute with a single
    common data bus, loads held until the store queue (the ROB's store
    slots) drains, and mispredict recovery at commit via the committed
    rename state.  Division is not implemented (RIDECORE does not
    implement it either); div/rem, system and fence instructions retire
    as nops.

    Fetch is 2 instructions per cycle through a 64-bit port
    [instr_rdata[63:0]] at the word-aligned [instr_addr]. *)

type config = {
  rob_entries : int;   (** default 64 *)
  phys_regs : int;     (** default 96 *)
  iq_entries : int;    (** default 16 *)
  pht_entries : int;   (** default 256 (G-share) *)
  btb_entries : int;   (** default 8 *)
}

val default_config : config

val fast_config : config
(** ROB 16, 48 physical registers, IQ 8, PHT 64, BTB 8: the scaled-down
    core that [--fast] runs of the CLI and the bench harness reduce. *)

type t = {
  design : Netlist.Design.t;
  instr_port : string;
  config : config;
}

val build : ?config:config -> unit -> t

val peek_crat_nets : t -> int -> Netlist.Design.net array
(** Committed rename-table entry for architectural register [k]: the
    physical register index currently holding its committed value. *)

val peek_prf_nets : t -> int -> Netlist.Design.net array
(** Physical register [p] as 32 nets.  Reading architectural state from
    a testbench is a two-step indirection: {!peek_crat_nets} then this. *)
