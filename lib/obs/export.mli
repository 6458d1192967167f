(** Exporters: Chrome/Perfetto trace JSON, stats JSON, human tables.

    The Chrome export follows the [trace_event] format, so a produced
    file loads directly in Perfetto (https://ui.perfetto.dev) or
    chrome://tracing: a top-level [traceEvents] array whose elements
    carry [name]/[ph]/[ts]/[pid]/[tid].  Fault service is emitted as
    B/E duration pairs per CPU track; everything else as instant
    events. *)

val write_chrome_trace : path:string -> ?cycles_per_us:float -> Obs.t -> unit
(** [write_chrome_trace ~path tr] writes the retained ring as a Chrome
    trace document.  [cycles_per_us] converts simulated cycles to the
    format's microsecond timestamps (default 1.0: one cycle shown as one
    us). *)

val write_stats :
  path:string -> ?extra:(string * Jout.t) list -> Obs.t -> unit
(** [write_stats ~path tr] writes a machine-readable summary: per-kind
    event counts, drop accounting, fault-latency histograms split by
    resolution kind (their counts sum to the recorded [fault_end] total),
    then every {!Obs.hist} under its {!Obs.hist_names} key.  [extra]
    fields are appended at the top level, for callers folding in
    [Machine.stats] etc. *)

val print_summary : Obs.t -> unit

(** {1 Cycle attribution}

    All three take [clocks], the per-CPU cycle counters at export time
    ([Machine.cycles] per CPU), so every view can check the conservation
    invariant: with the tracer installed before the machine ran, each
    CPU's category totals sum exactly to its clock. *)

val attribution_conserved : clocks:int array -> Obs.t -> bool

val attribution_json : clocks:int array -> Obs.t -> Jout.t
(** Aggregate and per-CPU category totals, conservation flags, and the
    slowest fault spans; joined into the stats JSON under
    ["attribution"]. *)

val profile_tables : clocks:int array -> Obs.t -> Mach_util.Tablefmt.t list
(** The [machsim --profile] report: top-down attribution (per CPU and
    aggregate with percent-of-total), fault service-time percentiles,
    and the top {!Obs.top_spans} by service time. *)
