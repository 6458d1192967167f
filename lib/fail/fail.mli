(** Deterministic, seeded fault injection for the paging hierarchy.

    The kernel's design bet (Section 1) is that all authoritative VM
    state is machine independent and everything below it — pmap, pagers,
    disks, pagers on other machines — is reconstructible.  This module supplies the
    adversary that bet is made against: a pure decision engine that
    components ([Simdisk] and the pager stack) consult at named
    {e sites} before performing an operation.  The engine owns no
    component state and performs no I/O; it only answers "what should go
    wrong this time?", so the same seed always replays the identical
    failure sequence.

    Each site has its own splitmix64 stream (derived from the master
    seed and the site name) and its own operation counter, so adding a
    new site, or reordering operations at one site, never perturbs the
    decisions taken at another. *)

type decision =
  | Pass               (** no injection; perform the operation normally *)
  | Fail               (** the operation fails with an error *)
  | Drop               (** no reply at all: the caller times out *)
  | Delay of int       (** latency spike: charge this many extra cycles,
                           then succeed *)
  | Short of int       (** serve only the first [n] bytes of the data *)
  | Garbage            (** serve deterministically corrupted data *)

type rule =
  | Always of decision
  | With_probability of float * decision
      (** trigger with the given probability, from the site's stream *)
  | Fail_n_then_recover of int * decision
      (** trigger on the first [n] operations at the site, then never *)
  | After of int * rule
      (** apply [rule] only from the [n]-th operation (0-based) onward;
          [After (k, Fail_n_then_recover (k + 1, d))] injects [d] on
          operation [k] alone *)

type plan = rule list
(** First rule that triggers wins; an empty plan always passes. *)

type event = { ev_site : string; ev_op : int; ev_decision : decision }
(** One non-[Pass] decision, in the order taken. *)

type t

val create : seed:int -> t
(** [create ~seed] is an injector whose every decision is a pure
    function of [seed], the site names, and the per-site operation
    order. *)

val seed : t -> int

val attach : t -> site:string -> plan -> unit
(** [attach t ~site plan] arms [site].  Re-attaching replaces the plan
    but keeps the site's stream and counter, so a plan swap mid-run is
    itself deterministic.  Sites never attached always decide [Pass]. *)

val decide : t -> site:string -> decision
(** [decide t ~site] takes (and records) the next decision at [site],
    advancing its operation counter. *)

val injections : t -> int
(** Total non-[Pass] decisions taken across all sites. *)

val fingerprint : t -> string
(** A short stable digest of every non-[Pass] decision in the order
    taken (site, operation, decision) — two runs with the same seed and
    workload must produce the same fingerprint.  [machsim --chaos]
    prints it so replay identity can be checked with [diff]. *)

val scramble : Bytes.t -> Bytes.t
(** Deterministic corruption for [Garbage]: a fresh buffer with every
    byte xor'ed with [0xA5] (never the identity, never random). *)

(** {1 Canned profiles}

    Named (site, plan) sets for [machsim --chaos SEED[:PROFILE]] and the
    chaos bench/smoke.  Site names are the ones the components consult:
    ["disk.read"] and ["disk.write"] ([Simdisk]), ["pager.request"] and
    ["pager.write"] ([Chaos_pager]). *)

val profile : string -> (string * plan) list option
(** [profile name] is the plan set for a profile name, or [None].
    Known profiles: ["flaky"] (low-probability transient disk and pager
    errors and latency spikes), ["disk"] (disk errors + latency only),
    ["pagerdeath"] (pager
    writes fail permanently after a warm-up, reads follow — drives the
    death/rescue path), ["lowmem"] (pageout writes fail or crawl and
    pageins stall — pairs with a small [--mem]/[--swap] configuration to
    drive backpressure, requeue escalation and the OOM policy). *)

val profile_names : string list

val parse_spec : string -> (int * string, string) result
(** [parse_spec "SEED[:PROFILE]"] parses the [--chaos] argument; the
    profile defaults to ["flaky"].  Errors mention the valid names. *)
