"""The benchmark workloads: set-up, one pipeline pass, and output checks.

Every pipeline call goes through a module attribute (`bf.construct_cherry`,
`bf.construct.write_blocking_set`, ...) looked up at call time, so the
traced run sees the wrappers that `spans.Tracer` binds there.

A pass returns `(outputs, artifacts)`.  `outputs` is plain JSON data whose
canonical dump is compared across passes and between the traced and the
untraced run; `artifacts` holds the objects the oracle and the `jobs=2`
comparison need.  `finish` adds the digests of the constructed point sets to
a pass's outputs after its timing stops, so hashing is not counted as the
program's time.  `check` compares one pass's outputs with the pinned
expectations in workloads.json and with the oracle's findings, and returns
one `(operation, problems)` pair per checked operation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time

import numpy as np

import oracle

S = 2  # every workload builds and checks strong 2-blocking sets


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points, dtype=np.int64).tobytes()).hexdigest()


def oracle_field(fld) -> oracle.Field:
    return oracle.Field(fld.p, fld.m, fld.modulus)


def _expect(problems: list, label: str, got, want) -> None:
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _cherry_pass(bf, fld, graph, supply):
    """General position, span dump of the cherries; returns (outputs, B)."""
    gp = bf.verify_general_position(supply)
    b = bf.construct_cherry(graph, supply, report=gp)
    out = {"gp": gp.to_dict(), "size": b.size, "lower_bound": bf.lower_bound(fld.q, b.k, S)}
    return out, b


def _span_sha(b, graph, supply) -> str:
    """Digest of the oracle's span dump of every cherry of the graph."""
    F = oracle_field(b.field)
    keys = oracle.cherry_span_keys(F, supply.matrix.data, graph.adjacency)
    return digest(_decode(F, keys, b.k))


def _cherry_oracle(b, graph, supply) -> dict:
    """The oracle's point set and failing subspaces for a cherry set B."""
    F = oracle_field(b.field)
    return {"points_sha": _span_sha(b, graph, supply),
            "failing": oracle.failing_subspaces(F, b.points, S), "F": F, "points": b.points}


def _check_cherry(out, pin, orc) -> list:
    problems = []
    _expect(problems, "s_independence", out["gp"]["s_independence"], pin["s_independence"])
    _expect(problems, "span_threshold", out["gp"]["span_threshold"], pin["span_threshold"])
    _expect(problems, "|B|", out["size"], pin["size"])
    _expect(problems, "lower_bound", out["lower_bound"], pin["lower_bound"])
    if out["size"] < out["lower_bound"]:
        problems.append(f"|B|={out['size']} is below the lower bound {out['lower_bound']}")
    _expect(problems, "points vs oracle span dump", out["points_sha"], orc["points_sha"])
    return problems


def _check_verify(report: str, pin: str, orc) -> list:
    """Pinned report bytes; verdict, counterexample and failure count against
    the oracle's set of failing subspaces."""
    problems = []
    _expect(problems, "report", report, pin)
    rep = json.loads(report)
    _expect(problems, "verdict vs oracle", rep["result"], "fail" if orc["failing"] else "pass")
    ce = rep["counterexample"]
    if ce is not None:
        if tuple(map(tuple, ce["basis"])) not in orc["failing"]:
            problems.append(f"counterexample {ce['basis']} is not a failing subspace")
        _expect(problems, "counterexample rank vs oracle", ce["rank"],
                oracle.meet_rank(orc["F"], orc["points"], ce["basis"]))
    if rep["counterexample_count"] is not None:
        _expect(problems, "counterexample_count vs oracle", rep["counterexample_count"],
                len(orc["failing"]))
    return problems


def _jobs_pair(bf, label, b, kwargs):
    """(label, jobs=1 report, jobs=2 report, jobs=1 seconds, jobs=2 seconds)"""
    t0 = time.perf_counter()
    one = dump(bf.is_strong_blocking(b, S, jobs=1, **kwargs).to_dict())
    t1 = time.perf_counter()
    two = dump(bf.is_strong_blocking(b, S, jobs=2, **kwargs).to_dict())
    t2 = time.perf_counter()
    return label, one, two, t1 - t0, t2 - t1


class Workload:
    deterministic = True

    def __init__(self, spec: dict):
        self.pins = spec["expected"]


# ---------------------------------------------------------------------------
# exhaustive: four small cherry instances, verified over every subspace
# ---------------------------------------------------------------------------

class Exhaustive(Workload):
    """prime: GF(13) cherries of K10.  dual: GF(7) cherries of K6, whose
    verdict must agree with is_s_minimal of the code it generates.  ext:
    GF(9) cherries of K7.  fail: GF(13) cherries of the path P5, which is
    not blocking; verified twice, stopping at the earliest counterexample
    and with count_all."""

    INSTANCES = {  # name: ((p, m), graph, n); MDS supply in F_q^4
        "prime": ((13, 1), "complete_graph", 10),
        "dual": ((7, 1), "complete_graph", 6),
        "ext": ((3, 2), "complete_graph", 7),
        "fail": ((13, 1), "path_graph", 5),
    }

    def setup(self, bf, seed):
        inp = {}
        for name, ((p, m), graph, n) in self.INSTANCES.items():
            fld = bf.field_create(p, m)
            inp[name] = {"fld": fld, "graph": getattr(bf, graph)(n),
                         "supply": bf.supply_mds(fld, 4, n)}
        return inp

    def run(self, bf, inp, tmpdir):
        outs, arts = {}, {}
        for name, x in inp.items():
            out, b = _cherry_pass(bf, x["fld"], x["graph"], x["supply"])
            out["report"] = dump(bf.is_strong_blocking(b, S).to_dict())
            if name == "dual":
                out["minimal"] = bf.is_s_minimal(bf.blocking_to_code(b), S).to_dict()
            if name == "fail":
                out["report_all"] = dump(bf.is_strong_blocking(b, S, count_all=True).to_dict())
            outs[name], arts[name] = out, b
        return outs, arts

    def finish(self, out, art):
        for name, b in art.items():
            out[name]["points_sha"] = digest(b.points)

    def oracle(self, bf, inp, art):
        return {name: _cherry_oracle(art[name], x["graph"], x["supply"])
                for name, x in inp.items()}

    def check(self, out, orc, seed):
        ops = []
        for name, pin in self.pins.items():
            ops.append((f"{name} construct", _check_cherry(out[name], pin, orc[name])))
            for key in ("report", "report_all"):
                if key in pin:
                    ops.append((f"{name} {key}", _check_verify(out[name][key], pin[key],
                                                              orc[name])))
        problems = []
        minimal = out["dual"]["minimal"]["result"]
        _expect(problems, "minimality", minimal, self.pins["dual"]["minimal"])
        _expect(problems, "duality (blocking == minimal)", minimal,
                json.loads(out["dual"]["report"])["result"])
        ops.append(("dual mincheck", problems))
        return ops

    def jobs2(self, bf, art):
        """`_jobs_pair` results for the verifies that also run with jobs=2."""
        return [_jobs_pair(bf, "prime verify", art["prime"], {}),
                _jobs_pair(bf, "fail verify", art["fail"], {}),
                _jobs_pair(bf, "fail verify count_all", art["fail"], {"count_all": True})]


# ---------------------------------------------------------------------------
# lps-sampled: LPS X^{5,13} x random GF(3)^20 supply, sampled checks
# ---------------------------------------------------------------------------

class LpsSampled(Workload):
    deterministic = False
    FIELD, K = 3, 20  # supply: random K x N matrix over GF(3)
    LPS_P, LPS_Q = 5, 13
    N = LPS_Q * (LPS_Q ** 2 - 1)  # |PGL2(13)|, as 5 is a non-residue mod 13
    SPAN_T = 40  # not 30: see parameters_note in workloads.json
    GP_SAMPLES = 1000
    TRIALS = 12
    ORACLE_TRIALS = 3

    def seeds(self, seed: int) -> dict:
        supply, gp, trials, check = (int(x) for x in
                                     np.random.SeedSequence(seed).generate_state(4))
        return {"supply": supply, "gp": gp, "trials": trials, "oracle": check}

    def setup(self, bf, seed):
        fld = bf.field_create(self.FIELD)
        seeds = self.seeds(seed)
        mat = _distinct_columns(oracle_field(fld), self.K, self.N,
                                np.random.default_rng(seeds["supply"]))
        supply = bf.PointSupply(bf.MatrixGF(fld, mat), provenance="random")
        return {"fld": fld, "supply": supply, "seeds": seeds}

    def run(self, bf, inp, tmpdir):
        g = bf.lps_graph(self.LPS_P, self.LPS_Q)
        spec = bf.second_eigenvalue(g)
        gp = bf.verify_general_position(inp["supply"], S, self.SPAN_T,
                                        samples=self.GP_SAMPLES, seed=inp["seeds"]["gp"])
        b = bf.construct_cherry(g, inp["supply"], report=gp)
        path = os.path.join(tmpdir, "cherry.pts")
        bf.construct.write_blocking_set(path, b)
        file_bytes = os.path.getsize(path)
        b2 = bf.construct.read_blocking_set(path)
        rep = bf.is_strong_blocking_sampled(b2, S, self.TRIALS, seed=inp["seeds"]["trials"])
        out = {"spectral": spec.to_dict(), "gp": gp.to_dict(), "size": b.size,
               "lower_bound": bf.lower_bound(inp["fld"].q, b.k, S), "file_bytes": file_bytes,
               "read_back_equal": b2 == b,
               "report": rep.to_dict()}
        return out, {"b": b, "graph": g}

    def finish(self, out, art):
        out["points_sha"] = digest(art["b"].points)

    def oracle(self, bf, inp, art):
        b = art["b"]
        ranks = oracle.sampled_meet_ranks(oracle_field(b.field), b.points, S,
                                          self.ORACLE_TRIALS, inp["seeds"]["oracle"])
        return {"points_sha": _span_sha(b, art["graph"], inp["supply"]), "ranks": ranks,
                "k": b.k}

    def check(self, out, orc, seed):
        pins = self.pins
        by_seed = pins["by_seed"].get(str(seed), {})
        problems = []
        spec = out["spectral"]
        _expect(problems, "graph n", spec["n"], pins["graph"]["n"])
        _expect(problems, "graph degree", spec["d"], pins["graph"]["d"])
        _expect(problems, "graph bipartite", spec["bipartite"], pins["graph"]["bipartite"])
        ramanujan = 2 * math.sqrt(self.LPS_P) + pins["graph"]["lambda_slack"]
        if not spec["lambda_bound"] <= ramanujan:
            problems.append(f"lambda {spec['lambda_bound']} exceeds 2*sqrt({self.LPS_P})")
        ops = [("spectra", problems)]
        problems = []
        if out["gp"]["s_independence"] < S:
            problems.append(f"s_independence {out['gp']['s_independence']} < {S}")
        span = out["gp"]["span_threshold"]
        if span is None or span > self.SPAN_T:
            problems.append(f"span_threshold {span} is not <= {self.SPAN_T}")
        ops.append(("general-position", problems))
        problems = []
        if "size" in by_seed:
            _expect(problems, "|B|", out["size"], by_seed["size"])
        _expect(problems, "lower_bound", out["lower_bound"], pins["lower_bound"])
        if out["size"] < out["lower_bound"]:
            problems.append(f"|B|={out['size']} is below the lower bound {out['lower_bound']}")
        _expect(problems, "points vs oracle span dump", out["points_sha"], orc["points_sha"])
        ops.append(("construct", problems))
        problems = []
        _expect(problems, "read-back equality", out["read_back_equal"], True)
        if "file_bytes" in by_seed:
            _expect(problems, "file bytes", out["file_bytes"], by_seed["file_bytes"])
        ops.append(("round-trip", problems))
        problems = []
        for key, want in pins["report"].items():
            _expect(problems, f"report {key}", out["report"][key], want)
        bad = [r for r in orc["ranks"] if r != orc["k"] - S]
        if bad:
            problems.append(f"oracle subspaces meet B in rank {bad}, expected {orc['k'] - S}")
        ops.append(("verify-sampled", problems))
        return ops

    def jobs2(self, bf, art):
        return []


def _decode(F: oracle.Field, keys: np.ndarray, k: int) -> np.ndarray:
    """Rows whose big-endian base-q keys are `keys`."""
    pows = F.q ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (keys[:, None] // pows) % F.q


def _distinct_columns(F: oracle.Field, k: int, n: int, rng) -> np.ndarray:
    """k x n random matrix over a prime field whose columns are nonzero and
    pairwise projectively distinct (zero or repeated columns are redrawn)."""
    cols = rng.integers(0, F.q, size=(n, k))
    while True:
        nonzero = cols.any(axis=1)
        keys = np.where(nonzero, F.keys(F.normalize(cols)), -1)
        _, first = np.unique(keys, return_index=True)
        keep = np.zeros(n, dtype=bool)
        keep[first] = True
        bad = ~(keep & nonzero)
        if not bad.any():
            return cols.T.copy()
        cols[bad] = rng.integers(0, F.q, size=(int(bad.sum()), k))


KINDS = {"exhaustive": Exhaustive, "lps-sampled": LpsSampled}


def load(spec_path: str) -> dict:
    """Workloads by name, with their pins from workloads.json."""
    with open(spec_path) as f:
        spec = json.load(f)
    return {name: KINDS[name](spec["workloads"][name]) for name in KINDS}
