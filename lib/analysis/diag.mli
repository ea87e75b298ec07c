(** Located diagnostics — the shared currency of the static-analysis
    subsystem.

    Every finding the lint rules or the certificate audit produce is a
    [t]: a stable rule id, a severity, a location that names the
    offending net/cell/port, and a human message.  The pipeline, the
    CLI and CI all gate on the same values, so severities have a fixed
    meaning: [Error] findings make Strict gates fail, [Warning]s are
    reported but never gate, [Info] is advisory (e.g. ternary-constant
    nets the miner could skip). *)

type severity = Info | Warning | Error

type location =
  | Net of { net : Netlist.Design.net; name : string }
  | Cell of { cell : int; kind : string; out : Netlist.Design.net; out_name : string }
  | Port of string  (** A primary input/output (or bus base) by name. *)
  | Whole_design

type t = {
  rule : string;  (** Stable kebab-case rule id, e.g. ["multi-driven"]. *)
  severity : severity;
  loc : location;
  message : string;
}

val make : rule:string -> severity:severity -> loc:location -> string -> t

val net_loc : Netlist.Design.t -> Netlist.Design.net -> location
(** Location of a net, resolving its debug name. *)

val cell_loc : Netlist.Design.t -> int -> location
(** Location of a cell by id, resolving kind and output-net names. *)

val severity_name : severity -> string
val compare_severity : severity -> severity -> int
(** [Info < Warning < Error]. *)

val errors : t list -> t list
(** The [Error]-severity subset, order preserved. *)

val count : t list -> int * int * int
(** [(errors, warnings, infos)]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
