"""The plan generator's benchmark: one workload, one seed, one JSON line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload http-hot --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``http-hot`` drives ``repro serve`` over one
keep-alive HTTP connection; ``exact-cold`` and ``ladder-large`` call
``PlanService.plan`` from one thread of a worker process. The load is a
closed loop: the next request goes out when the previous plan is back.
Every returned plan is checked by ``check.py``. The last line of stdout
is ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 1``
reports the per-layer metrics of ``tracing.py`` instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import check  # noqa: E402

WORKLOADS = ("http-hot", "exact-cold", "ladder-large")
#: Set-up is timed this many times per run (fresh processes); the median
#: is reported.
SETUP_REPEATS = 5
#: Tail percentile per workload: the highest with at least ten samples
#: beyond it at the workload's fixed minimum request count (1000, 100
#: and 50; README, "Tail percentiles"). Runs go on until both the time
#: and that count are reached; http-hot also sends its whole sequence.
TAIL = {"http-hot": 0.99, "exact-cold": 0.9, "ladder-large": 0.8}
#: Whole rounds the traced run makes, untraced and then traced; fixed so
#: that its counts repeat exactly.
TRACE_ROUNDS = {"exact-cold": 2, "ladder-large": 1}
TRACE_HOT_REQUESTS = 3000
#: http-hot throughput is the median rate over windows of this many requests.
HOT_WINDOW = 1000
SERVE_FLAGS = [
    "--port", "0",
    # Deployment settings under which neither the per-tenant quota nor
    # admission control refuses a closed-loop client.
    "--tenant-rate", "1000000000", "--tenant-burst", "1000000000",
    "--max-inflight", "64",
]


class Failure(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    return env


def stop(process: subprocess.Popen, sig=signal.SIGTERM) -> None:
    if process.poll() is None:
        process.send_signal(sig)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def min_count(q: float) -> int:
    """Smallest sample count with ten samples beyond percentile ``q``."""
    return max(40, math.ceil(10 / (1 - q) - 1e-9))


#: The named fault as the worker reports it (README, "Known fault"). A
#: fixed ladder row may fail only with this error or with a cost of inf.
OVERFLOW_ERROR = "AssertionError: greedy forest became disconnected"


class Checker:
    """Checks responses and accumulates the plan-quality figures.

    ``attempted`` and ``failed`` count distinct operations, not sends:
    a run repeats a fixed list of operations, and each must end the same
    way every time it is sent, so the counts depend on the inputs only.
    """

    def __init__(self, instances: list[dict]) -> None:
        self.instances = instances
        self.prepared = [check.Instance(data) for data in instances]
        self.correct = True
        self.ratio = {}
        self.optimum = {}
        self.problems: list[str] = []
        #: index -> the set of outcomes seen (True: failed).
        self.outcomes: dict[int, set[bool]] = {}

    def problem(self, text: str) -> None:
        self.correct = False
        if len(self.problems) < 5:
            self.problems.append(text)

    def refused(self, index: int, text: str) -> None:
        """An operation the program did not answer; always a problem."""
        self.outcomes.setdefault(index, set()).add(True)
        self.problem(text)

    def response(self, index: int, plan, cost, error=None, quality=True) -> float | None:
        """Check one response; returns its log cost, None if it failed.

        With ``quality`` the query's per-join cost ratio against the
        reference plan enters ``plan_cost_ratio`` (once per query).
        """
        data = self.instances[index]
        failed = error is not None or cost == math.inf
        self.outcomes.setdefault(index, set()).add(failed)
        if failed:
            if not data["fixed"]:
                self.problem(f"{data['label']}: failed: {error or cost}")
            elif error is not None and error != OVERFLOW_ERROR:
                self.problem(f"{data['label']}: not the named overflow: {error}")
            elif error is None:
                # An overflowed cost; the plan itself must still be sound.
                try:
                    self.prepared[index].plan_costs(plan)
                except check.CheckError as failure:
                    self.problem(f"{data['label']}: {failure}")
            return None
        instance = self.prepared[index]
        try:
            log_cost, log_inner = check.check_reported(instance, plan, cost)
        except check.CheckError as failure:
            self.problem(f"{data['label']}: {failure}")
            return None
        if quality and index not in self.ratio:
            self.ratio[index] = check.per_join_log_ratio(instance, log_inner)
        return log_cost

    def counts(self) -> tuple[int, int]:
        """(attempted, failed) distinct operations."""
        for index, outcomes in self.outcomes.items():
            if len(outcomes) > 1:
                self.problem(f"{self.instances[index]['label']}: failed only sometimes")
        failed = sum(1 for outcomes in self.outcomes.values() if True in outcomes)
        return len(self.outcomes), failed

    def exact(self, index: int, log_cost: float) -> None:
        """The exact rung must match the checker's own exhaustive optimum."""
        if index not in self.optimum:
            self.optimum[index] = self.prepared[index].exhaustive_log_cost()
        optimum = self.optimum[index]
        if optimum is not None and abs(optimum - log_cost) > 1e-7 * max(1, abs(optimum)):
            self.problem(
                f"{self.instances[index]['label']}: cost exp({log_cost}) "
                f"is not the optimum exp({optimum})"
            )

    def plan_cost_ratio(self) -> float:
        return math.exp(statistics.fmean(self.ratio.values()))


def latency_metrics(workload: str, latencies: list[float], rates: list[float]) -> dict:
    """Throughput is the median of per-window rates (README, "End-to-end")."""
    metrics = {
        "throughput_qps": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
    }
    if len(latencies) >= min_count(TAIL[workload]):
        metrics["latency_tail_ms"] = (
            1e3 * percentile(latencies, TAIL[workload]), "ms"
        )
    return metrics


# ----------------------------------------------------------------------
# http-hot
# ----------------------------------------------------------------------


class Connection:
    """One keep-alive HTTP/1.1 connection with pre-encoded requests."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    @staticmethod
    def encode(method: str, path: str, body: bytes = b"") -> bytes:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        return head.encode("latin-1") + body

    def exchange(self, request: bytes) -> tuple[int, bytes]:
        self.sock.sendall(request)
        status_line = self.reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def get_json(self, path: str) -> dict:
        status, body = self.exchange(self.encode("GET", path))
        if status != 200:
            raise Failure(f"GET {path} answered {status}")
        return json.loads(body)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def start_server(traced_spans: str | None) -> tuple[subprocess.Popen, int]:
    if traced_spans is None:
        command = [sys.executable, "-m", "repro", "serve", *SERVE_FLAGS]
    else:
        command = [
            sys.executable, os.path.join(HERE, "traced_serve.py"),
            traced_spans, *SERVE_FLAGS,
        ]
    process = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    if not line.startswith("serving on http://"):
        stop(process)
        raise Failure(f"server did not start: {line!r}")
    port = int(line.split()[2].rsplit(":", 1)[1])
    return process, port


def hot_bodies(inputs: dict):
    """Encoded warm-up and timed requests, and the instance of each."""
    from instances import plan_body, sql_text

    def encode(route: str, instance: dict) -> bytes:
        payload = (
            {"sql": sql_text(instance)} if route == "/plan_sql"
            else plan_body(instance)
        )
        return Connection.encode(
            "POST", route, json.dumps(payload, separators=(",", ":")).encode()
        )

    pool = inputs["pool"]
    sql_queries = sorted(
        {item["query"] for item in inputs["sequence"] if item["route"] == "/plan_sql"}
    )
    warmup = [(q, encode("/plan", pool[q])) for q in range(len(pool))]
    warmup += [(q, encode("/plan_sql", pool[q])) for q in sql_queries]
    timed = [encode(item["route"], item["instance"]) for item in inputs["sequence"]]
    return warmup, timed


def hot_setup(warmup, traced_spans: str | None = None):
    """Start a server and warm its cache with every pooled query."""
    began = time.perf_counter()
    process, port = start_server(traced_spans)
    try:
        connection = Connection(port)
        responses = [connection.exchange(body) for _query, body in warmup]
    except BaseException:
        stop(process)
        raise
    return process, connection, responses, time.perf_counter() - began


def hot_loop(connection, timed, seconds, count=None):
    """Closed loop over ``timed``: ``count`` requests, else ``seconds``."""
    records = []
    # The client's own collector pauses would read as server latency.
    gc.disable()
    try:
        return _hot_loop(connection, timed, seconds, count, records)
    finally:
        gc.enable()


def _hot_loop(connection, timed, seconds, count, records):
    started = time.perf_counter()
    position = 0
    while True:
        request = timed[position % len(timed)]
        begin = time.perf_counter()
        status, body = connection.exchange(request)
        records.append(
            (position % len(timed), begin, time.perf_counter() - begin, status, body)
        )
        position += 1
        if count is not None:
            if position >= count:
                break
        elif position % 64 == 0 and time.perf_counter() - started >= seconds:
            # Every request of the sequence is sent at least once.
            if position >= max(len(timed), min_count(TAIL["http-hot"])):
                break
    return records


def check_hot(inputs, warmup, warm_responses, records, checker_pool, checker_seq):
    """Warm-up answers fill the cache; timed answers must be hits of equal cost."""
    miss_cost = {}
    for (query, _body), (status, body) in zip(warmup, warm_responses):
        if status != 200:
            checker_pool.problem(f"warm-up of query {query} answered {status}")
            continue
        answer = json.loads(body)
        plan = check.plan_from_wire(answer["plan"])
        log_cost = checker_pool.response(query, plan, answer["cost"])
        if log_cost is not None:
            checker_pool.exact(query, log_cost)
        miss_cost.setdefault(query, answer["cost"])
    refused = 0
    latencies, succeeded = [], []
    for position, _begin, latency, status, body in records:
        succeeded.append(False)
        item = inputs["sequence"][position]
        if status != 200:
            refused += 1
            checker_seq.refused(position, f"request {position} answered {status}")
            continue
        answer = json.loads(body)
        plan = check.plan_from_wire(answer["plan"])
        if checker_seq.response(position, plan, answer["cost"], quality=False) is None:
            continue
        if not answer["cache_hit"]:
            checker_seq.problem(f"request {position} missed the warmed cache")
        expected = miss_cost.get(item["query"])
        if expected is None or abs(answer["cost"] - expected) > 1e-12 * expected:
            checker_seq.problem(
                f"request {position}: hit cost {answer['cost']} != miss cost {expected}"
            )
        latencies.append(latency)
        succeeded[-1] = True
    return latencies, succeeded, refused


def window_rates(begins: list[float], succeeded: list[bool], size: int) -> list[float]:
    """Successful requests per second in consecutive windows of ``size``."""
    rates = []
    for start in range(0, len(begins) - size, size):
        seconds = begins[start + size] - begins[start]
        rates.append(sum(succeeded[start:start + size]) / seconds)
    return rates


def run_http_hot(seed: int, seconds: float, trace: bool) -> dict:
    from instances import http_hot

    inputs = http_hot(seed)
    warmup, timed = hot_bodies(inputs)
    checker_pool = Checker(inputs["pool"])
    checker_seq = Checker([item["instance"] for item in inputs["sequence"]])
    setups = []
    for repeat in range(SETUP_REPEATS):
        process, connection, warm_responses, setup = hot_setup(warmup)
        setups.append(setup)
        if repeat < SETUP_REPEATS - 1:
            connection.close()
            stop(process)
    try:
        if trace:
            records = hot_loop(connection, timed, 0, TRACE_HOT_REQUESTS)
            plain = [record[2] for record in records]
            connection.close()
            stop(process)
            spans_path = os.path.join(OUT, f"spans-http-hot-{seed}.jsonl")
            process, connection, warm_responses, _ = hot_setup(warmup, spans_path)
            before = connection.get_json("/snapshot")["cache"]
            records = hot_loop(connection, timed, 0, TRACE_HOT_REQUESTS)
            after = connection.get_json("/snapshot")["cache"]
            connection.close()
            stop(process, signal.SIGINT)
            if process.returncode != 0:
                raise Failure(f"traced server exited with {process.returncode}")
        else:
            records = hot_loop(connection, timed, seconds)
    finally:
        connection.close()
        stop(process)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    latencies, succeeded, refused = check_hot(
        inputs, warmup, warm_responses, records, checker_pool, checker_seq
    )
    attempted, failed = checker_seq.counts()
    checker_seq.problems = checker_pool.problems + checker_seq.problems
    checker_seq.correct = checker_seq.correct and checker_pool.correct
    result = {"attempted": attempted, "failed": failed, "checker": checker_seq}
    if trace:
        import tracing

        warm_requests = len(warmup)
        first = warm_requests + 2  # warm-up, then one GET /snapshot
        spans = [
            span for span in read_spans(spans_path)
            if first <= span["request"] < first + len(records)
        ]
        cache = {key: after[key] - before[key] for key in ("hits", "misses", "evictions")}
        sql_requests = sum(
            1 for position, *_ in records
            if inputs["sequence"][position]["route"] == "/plan_sql"
        )
        result["layers"] = tracing.layer_metrics(
            spans, len(records), sql_requests, cache, refused,
            csg_ms_of(inputs["pool"]),
            overhead_pct(plain, latencies),
        )
    else:
        rates = window_rates([record[1] for record in records], succeeded, HOT_WINDOW)
        metrics = latency_metrics("http-hot", latencies, rates)
        # Hits return the plan of the pooled query, so quality is taken
        # once per pooled query.
        metrics["plan_cost_ratio"] = (checker_pool.plan_cost_ratio(), "ratio")
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        result["metrics"] = metrics
    return result


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def overhead_pct(plain: list[float], traced: list[float]) -> float:
    """Median over requests of traced over untraced latency, minus 100 %.

    Both phases send the same requests in the same order, so they pair up.
    """
    return 100.0 * (statistics.median(t / p for p, t in zip(plain, traced)) - 1)


def csg_ms_of(instances: list[dict]) -> float:
    """enumerate_csg_cmp_pairs timed in this process on exact-routed graphs."""
    sys.path.insert(0, SRC)
    from worker import csg_enumerate_ms, to_request

    return csg_enumerate_ms([to_request(instance) for instance in instances])


# ----------------------------------------------------------------------
# exact-cold and ladder-large
# ----------------------------------------------------------------------


def spawn_worker(capacity: int) -> tuple[subprocess.Popen, float]:
    began = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), str(capacity)],
        cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, text=True,
    )
    line = process.stdout.readline()
    if line.strip() != "READY":
        stop(process)
        raise Failure(f"worker did not start: {line!r}")
    return process, time.perf_counter() - began


def run_in_process(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import instances as generate

    if workload == "exact-cold":
        instances, capacity = generate.exact_cold(seed), generate.COLD_CACHE_CAPACITY
    else:
        instances, capacity = generate.ladder_large(seed), generate.LADDER_CACHE_CAPACITY
    seeded = sum(1 for instance in instances if not instance["fixed"])
    setups = []
    for repeat in range(SETUP_REPEATS):
        process, setup = spawn_worker(capacity)
        setups.append(setup)
        if repeat < SETUP_REPEATS - 1:
            process.stdin.close()
            stop(process)
    spans_path = os.path.join(OUT, f"spans-{workload}-{seed}.jsonl")
    job = {
        "instances": instances,
        "seconds": seconds,
        "min_rounds": math.ceil(min_count(TAIL[workload]) / seeded),
        "trace": trace,
        "trace_rounds": TRACE_ROUNDS[workload],
        "goo": workload == "ladder-large",
        "spans_out": spans_path,
    }
    try:
        output, _ = process.communicate(json.dumps(job) + "\n", timeout=170)
    finally:
        stop(process)
    if process.returncode != 0:
        raise Failure(f"worker exited with {process.returncode}")
    answer = json.loads(output.strip().splitlines()[-1])
    checker = Checker(instances)
    latencies = []
    successes = [0] * len(answer.get("round_seconds", ()))
    goo = answer.get("goo")
    for position, record in enumerate(answer["records"]):
        index = record["index"]
        log_cost = checker.response(
            index, record.get("plan"), record.get("cost"), record["error"]
        )
        if log_cost is None:
            continue
        latencies.append(record["latency"])
        if successes:
            successes[position // len(instances)] += 1
        if record["cache_hit"] or record["degraded"]:
            checker.problem(f"{instances[index]['label']}: not a fresh plan")
        if workload == "exact-cold":
            checker.exact(index, log_cost)
        elif goo is not None and goo[index] is not None and "lindp" in record["algorithm"]:
            # LinDP is never costlier than GOO's plan for the same query.
            bound, _ = checker.prepared[index].plan_costs(goo[index][0])
            if log_cost > bound + 1e-9 * max(1, abs(bound)):
                checker.problem(f"{instances[index]['label']}: costlier than GOO")
    attempted, failed = checker.counts()
    result = {"attempted": attempted, "failed": failed, "checker": checker}
    if trace:
        import tracing

        result["layers"] = tracing.layer_metrics(
            read_spans(spans_path), len(answer["records"]), 0,
            answer["cache"], 0, answer["csg_ms"],
            overhead_pct(answer["plain_latencies"], [r["latency"] for r in answer["records"]]),
        )
    else:
        rates = [
            count / seconds
            for count, seconds in zip(successes, answer["round_seconds"])
        ]
        metrics = latency_metrics(workload, latencies, rates)
        metrics["plan_cost_ratio"] = (checker.plan_cost_ratio(), "ratio")
        metrics["peak_rss_mb"] = (answer["peak_rss_kb"] / 1024, "MB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    # One CPU for this process and every process it starts: one request
    # is in flight at a time, and on a two-vCPU virtual machine each
    # hand-off to an idle CPU costs a wake-up through the hypervisor, which
    # swung http-hot throughput twofold between runs (README, "Load").
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.workload == "http-hot":
            result = run_http_hot(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_in_process(
                args.workload, args.seed, args.seconds, bool(args.trace)
            )
    except Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    checker = result["checker"]
    for text in checker.problems:
        print(f"check: {text}", file=sys.stderr)
    if args.trace:
        import tracing

        metrics = {
            name: {"value": result["layers"][name], "unit": unit}
            for name, unit in tracing.LAYER_METRICS.items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        }
    print(json.dumps({
        "correct": checker.correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
