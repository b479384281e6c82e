#!/usr/bin/env python3
"""Seeded grammar fuzz for every value raidxsim reads.

From a fixed seed, derive malformed invocations of each grammar -- the
--faults, --open-loop, --disk-type, --slo, --watch and --trace-sample specs
and the numeric flags -- by mutating one clause or value of a valid base
command: an unknown key, a missing '=', an empty value, a non-number,
trailing bytes, a sign on an unsigned value, overflow, inf/nan, a missing
or unknown unit, or a value out of range.  Every invocation must exit 2
and cite what it got wrong in stderr (the offending clause, or the flag
and its value).  A signal, a timeout, or any other exit code fails.
Malformed input exits before any world is built, so the set runs in
seconds.

usage: spec_fuzz.py RAIDXSIM
"""

import concurrent.futures
import os
import random
import subprocess
import sys
import tempfile

# The cases derive from one fixed seed, so every run checks the same set.
SEED = 2000
PER_GRAMMAR = 60
# Each case exits in milliseconds; a few workers keep the set at seconds.
JOBS = min(8, os.cpu_count() or 1)

# A small closed-loop run and a short open-loop run: the context each
# malformed value is dropped into.
IO = ["--nodes", "4", "--clients", "2", "--bytes", "256K", "--block", "64K"]
OPEN = ["--nodes", "4", "--block", "64K", "--open-loop",
        "rate=100,duration=0.05"]

# The kinds of value the grammar reads.  Each key or flag below lists its
# kind, one valid value, and values of its kind outside the range it
# accepts (None when it accepts every value of its kind).
INT, UINT, DOUBLE, DURATION, SIZE, WORD = (
    "int", "uint", "double", "duration", "size", "word")

# Past every integer type, including the 64-bit ones.
OVERFLOW_INT = "99999999999999999999999"


def mutations(kind, value, out_of_range):
    """(name, text) pairs that make `value` of `kind` malformed."""
    m = [("empty", ""), ("non-number", "abc"), ("trailing", value + "x")]
    if kind in (INT, UINT):
        m += [("overflow", OVERFLOW_INT), ("fraction", "2.5"),
              ("blank", " " + value)]
        if kind == UINT:
            m += [("sign", "-" + value), ("plus", "+" + value)]
    elif kind == DOUBLE:
        m += [("overflow", "1e999"), ("inf", "inf"), ("nan", "nan"),
              ("hex", "0x10")]
    elif kind == DURATION:
        number = value.rstrip("nmus")
        m += [("missing unit", number), ("unknown unit", number + "min"),
              ("sign", "-" + value), ("overflow", "1e999s"),
              ("inf", "infs"), ("nan", "nanms"), ("upper unit", number + "MS")]
    elif kind == SIZE:
        m += [("unknown unit", "32X"), ("unit word", "1KB"),
              ("sign", "-" + value), ("overflow", "99999999999G"),
              ("inf", "inf"), ("nan", "nanK")]
    elif kind == WORD:
        m = [("empty", ""), ("unknown word", value + "x"),
             ("case", value.upper())]
    for bad in out_of_range or []:
        m.append(("out of range", bad))
    return m


# Spec grammars: flag -> (separator, context, key -> (kind, valid value,
# out-of-range values)).
SPECS = {
    "--open-loop": (",", ["--nodes", "4", "--block", "64K"], {
        "rate": (DOUBLE, "100", ["0", "-5"]),
        "dist": (WORD, "poisson", None),
        "zipf": (DOUBLE, "0.9", ["-0.5"]),
        "tenants": (INT, "2", ["0", "-1", "70000"]),
        "sessions": (INT, "32", ["0"]),
        "duration": (DOUBLE, "0.05", ["0", "-1", "1e10"]),
        "write": (DOUBLE, "0.3", ["1.5", "-0.1"]),
        "req-blocks": (UINT, "1", ["0"]),
        "ws": (UINT, "2048", None),
        "qos-mbs": (DOUBLE, "20", ["-1", "1e-300", "0.0009"]),
        "qos-burst": (DOUBLE, "1", ["-1"]),
        "qos-policy": (WORD, "shed", None),
        "burst-on": (DOUBLE, "0.05", ["-1", "1e10"]),
        "burst-off": (DOUBLE, "0.45", ["-1"]),
        "burst-mult": (DOUBLE, "10", ["-2"]),
        "cap": (UINT, "4096", None),
        "remote": (DOUBLE, "0", ["1.5", "-0.5"]),
    }),
    "--disk-type": (",", IO, {
        "op": (DOUBLE, "0.15", ["1", "1.5", "-0.1"]),
        "gc": (WORD, "costben", None),
    }),
    "--slo": (",", OPEN, {
        "target": (DURATION, "5ms", ["0ms"]),
        "objective": (DOUBLE, "0.99", ["0", "1", "1.5"]),
        "window": (DURATION, "100ms", ["0s"]),
        "burn": (DOUBLE, "2", ["0", "-1"]),
    }),
    "--watch": (",", IO, {
        "interval": (DURATION, "50ms", ["0us"]),
        "samples": (UINT, "16", ["1", "0", "2000000"]),
    }),
    "--trace-sample": (",", IO, {
        "p": (DOUBLE, "0.5", ["1.5", "-0.5"]),
        "reservoir": (UINT, "16", None),
        "seed": (UINT, "1", None),
    }),
}

# Fault events: (template, key -> (kind, valid value, out-of-range
# values), context).  The template's {key} fields take the values.
FAULTS = [
    ("rand:seed={seed},faults={faults},window={window},heal={heal}", {
        "seed": (UINT, "7", None),
        "faults": (INT, "2", ["-1", "0", "65537"]),
        "window": (DURATION, "10s", ["0s"]),
        "heal": (DURATION, "3s", None),
    }, IO + ["--no-ha"]),
    ("rot:seed={seed},errors={errors},window={window}", {
        "seed": (UINT, "7", None),
        "errors": (INT, "5", ["-2", "0", "65537"]),
        "window": (DURATION, "1s", ["0ns"]),
    }, IO + ["--no-ha"]),
    ("corrupt:disk={disk},block={block}@{at}", {
        "disk": (INT, "3", ["4", "-1"]),
        "block": (UINT, "17", ["99999999"]),
        "at": (DURATION, "2s", None),
    }, IO + ["--no-ha"]),
    ("fail:disk={disk}@{at}", {
        "disk": (INT, "3", ["4", "-1"]),
        "at": (DURATION, "2ms", None),
    }, IO + ["--no-ha"]),
    ("brownout:link={link},bw={bw}@{at}", {
        "link": (INT, "0", ["1", "-1"]),
        "bw": (DOUBLE, "5", ["0", "-5", "1e-300", "0.0009"]),
        "at": (DURATION, "3s", None),
    }, ["--sites", "2"] + OPEN),
    ("partition:site={site}@{at};heal:site=1@15s", {
        "site": (INT, "1", ["2", "-1"]),
        "at": (DURATION, "5s", None),
    }, ["--sites", "2"] + OPEN),
]

# Numeric flags: flag -> (kind, valid value, out-of-range values).
FLAGS = {
    "--nodes": (INT, "4", ["1", "0", "-3"]),
    "--shards": (INT, "1", ["0", "-1"]),
    "--sites": (INT, "1", ["0"]),
    "--wan-rtt": (DOUBLE, "40", ["0", "-1", "1e13"]),
    "--wan-bw": (DOUBLE, "60", ["0", "-1", "1e-300"]),
    "--wan-window": (SIZE, "1M", ["0"]),
    "--geo-rep-mbs": (DOUBLE, "10", ["-1", "1e-300"]),
    "--threads": (INT, "0", ["-1"]),
    "--disks": (INT, "1", ["0"]),
    "--clients": (INT, "2", ["0"]),
    "--bytes": (SIZE, "256K", ["0"]),
    "--ops": (INT, "1", ["0"]),
    "--block": (SIZE, "64K", ["0", "8G"]),
    "--fail": (INT, "1", None),
    "--window": (INT, "2", ["0", "-1"]),
    "--cache-mb": (DOUBLE, "8", ["-1"]),
    "--warm": (INT, "0", ["-1"]),
    "--spares": (INT, "1", ["-1"]),
    "--global-spares": (INT, "0", ["-1"]),
    "--rebuild-mbs": (DOUBLE, "5", ["-1", "1e-300", "0.0009"]),
    "--timeout-ms": (DOUBLE, "100", ["-1", "1e13"]),
    "--scrub-rate": (DOUBLE, "100", ["-1", "1e-300"]),
    "--fail-threshold": (INT, "0", ["-1"]),
    "--seed": (UINT, "7", None),
}

# Inputs that crash, run another experiment, or pace a wait past what a
# sim::Time holds unless the grammar bounds them: each must exit 2 citing
# its flag or clause.
SITES = ["--sites", "2", "--nodes", "4", "--open-loop",
         "rate=100,duration=0.05"]
KNOWN = [
    (["--block", "0"], ["--block"]),
    (["--watch", "samples=-5"], ["samples=-5"]),
    (["--window", "0"], ["--window"]),
    (["--bytes", "1K"], ["--bytes"]),
    (["--op", "wirte"], ["--op", "wirte"]),
    (["--open-loop", "rate=100,req-blocks=-1"], ["req-blocks=-1"]),
    (["--seed", "abc"], ["--seed", "abc"]),
    (["--open-loop", "rate=100,zipf=abc"], ["zipf=abc"]),
    (["--faults", "rand:seed=1,faults=-1"], ["faults=-1"]),
    (["--faults", "fail:disk=1@-1s"], ["fail:disk=1@-1s"]),
    # A storm count reserves a slot per fault before anything runs; a zero
    # count or window runs without faults.
    (["--faults", "rot:errors=2147483647"], ["errors=2147483647"]),
    (["--faults", "rand:faults=2147483647"], ["faults=2147483647"]),
    (["--faults", "rot:seed=1,errors=0"], ["errors=0"]),
    (["--faults", "rand:seed=1,faults=0"], ["faults=0"]),
    (["--faults", "rand:faults=2,window=0s"], ["window=0s"]),
    # A rate of 1e-300 MB/s paces one block over ~1e300 s.
    (["--rebuild-mbs", "1e-300"], ["--rebuild-mbs", "1e-300"]),
    (["--scrub-rate", "1e-300"], ["--scrub-rate", "1e-300"]),
    (SITES + ["--wan-bw", "1e-300"], ["--wan-bw", "1e-300"]),
    (SITES + ["--geo-rep", "--geo-rep-mbs", "1e-300"],
     ["--geo-rep-mbs", "1e-300"]),
    (["--open-loop", "rate=100,qos-mbs=1e-300"], ["qos-mbs=1e-300"]),
    (SITES + ["--faults", "brownout:link=0,bw=1e-300@1s"], ["bw=1e-300"]),
]


def spec_cases(rng, flag):
    sep, context, keys = SPECS[flag]
    extra = ["--trace", "TRACE"] if flag == "--trace-sample" else []
    valid = {k: v for k, (_, v, _) in keys.items()}
    pool = []
    for key, (kind, value, bad) in keys.items():
        for name, text in mutations(kind, value, bad):
            pool.append((name, key, text))
    pool += [("unknown key", None, None), ("missing =", None, None)]
    cases = set()
    while len(cases) < PER_GRAMMAR:
        name, key, text = rng.choice(pool)
        # A random subset of the other clauses rides along, in a random
        # order, so the bad one is not always first or alone.
        others = [k for k in valid if k != key and rng.random() < 0.4]
        rng.shuffle(others)
        clauses = [f"{k}={valid[k]}" for k in others]
        if name == "unknown key":
            bogus = f"bogus{rng.randrange(1000)}"
            clauses.insert(rng.randrange(len(clauses) + 1), f"{bogus}=1")
            cite = [f"{flag} has no key '{bogus}'"]
        elif name == "missing =":
            key = rng.choice(list(valid))
            bad = f"{key}{valid[key]}"
            clauses.insert(rng.randrange(len(clauses) + 1), bad)
            cite = [f"{flag} clause '{bad}'"]
        else:
            bad = f"{key}={text}"
            clauses.insert(rng.randrange(len(clauses) + 1), bad)
            cite = [f"{flag} clause '{bad}'"]
        spec = sep.join(clauses)
        if flag == "--disk-type":
            spec = rng.choice(["ssd", "hybrid"]) + ":" + spec
            arch = ["--arch", "raidx", "--disks", "2"]
        else:
            arch = []
        cases.add((tuple(context + arch + extra + [flag, spec]),
                   tuple(cite), name))
    return sorted(cases)


def disk_type_kind_cases():
    """The device kind before ':' is a word of its own."""
    return [(tuple(IO + ["--disk-type", kind]),
             ("--disk-type", f"'{kind.split(':')[0]}'"), "unknown word")
            for kind in ("floppy", "SSD", "", "ssd2", "hdd2:op=0.1",
                         "hybridx:gc=greedy")]


def fault_cases(rng):
    pool = []
    for template, keys, context in FAULTS:
        for key, (kind, value, bad) in keys.items():
            for name, text in mutations(kind, value, bad):
                pool.append((template, keys, context, name, key, text))
        pool.append((template, keys, context, "unknown key", None, None))
        pool.append((template, keys, context, "missing =", None, None))
    cases = set()
    while len(cases) < PER_GRAMMAR:
        template, keys, context, name, key, text = rng.choice(pool)
        values = {k: v for k, (_, v, _) in keys.items()}
        if key is not None:
            values[key] = text
        spec = template.format(**values)
        event = spec.split(";")[0]
        if name == "unknown key":
            body = event.split(":", 1)[1]
            if "@" in body and "," not in body.split("@")[0]:
                # verb:kind=N@t has one key; an unknown one is an unknown
                # event.
                bad = event.replace(":", ":bogus", 1)
            else:
                bad = event.replace(":", ":bogus=1,", 1)
            spec = spec.replace(event, bad, 1)
            event = bad
        elif name == "missing =":
            bad = event.replace("=", "", 1)
            spec = spec.replace(event, bad, 1)
            event = bad
        cases.add((tuple(context + ["--faults", spec]),
                   (f"bad fault clause '{event}'",), name))
    return sorted(cases)


def flag_cases(rng):
    pool = []
    for flag, (kind, value, bad) in FLAGS.items():
        for name, text in mutations(kind, value, bad):
            pool.append((flag, name, text))
    cases = set()
    while len(cases) < PER_GRAMMAR:
        flag, name, text = rng.choice(pool)
        # Both spellings: --flag value and --flag=value.
        if rng.random() < 0.5:
            args = IO + [flag, text]
        else:
            args = IO + [f"{flag}={text}"]
        cases.add((tuple(args), (f"{flag}: '{text}'",), name))
    # A mode flag with an empty spec would run without its mode.
    for flag in ("--open-loop", "--faults"):
        cases.add((tuple(IO + [flag, ""]), (f"{flag} needs a spec, not ''",),
                   "empty spec"))
    # Choice flags read one word of a fixed list.
    for flag, word in (("--arch", "raidx"), ("--op", "read"),
                       ("--cache-policy", "wt"), ("--cache-evict", "lru"),
                       ("--workload", "io")):
        for name, text in mutations(WORD, word, None):
            cases.add((tuple(IO + [flag, text]), (f"{flag}: '{text}'",),
                       name))
    return sorted(cases)


def run_case(binary, tmp, case):
    args, cite, name = case
    argv = [binary] + [a.replace("TRACE", os.path.join(tmp, "t.json"))
                       for a in args]
    try:
        p = subprocess.run(argv, capture_output=True, text=True, timeout=20,
                           cwd=tmp)
    except subprocess.TimeoutExpired:
        return f"timed out [{name}]: {argv[1:]}"
    if p.returncode != 2:
        what = (f"signal {-p.returncode}" if p.returncode < 0
                else f"exit {p.returncode}")
        return f"{what} [{name}]: {argv[1:]}\n  stderr: {p.stderr.strip()}"
    missing = [c for c in cite if c not in p.stderr]
    if missing:
        return (f"stderr does not cite {missing} [{name}]: {argv[1:]}\n"
                f"  stderr: {p.stderr.strip()}")
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__.strip().splitlines()[-1])
    binary = os.path.abspath(sys.argv[1])  # the cases run in a temp dir
    rng = random.Random(SEED)

    groups = {flag: spec_cases(rng, flag) for flag in SPECS}
    groups["--disk-type"] += disk_type_kind_cases()
    groups["--faults"] = fault_cases(rng)
    groups["numeric flags"] = flag_cases(rng)
    groups["known"] = [(tuple(a), tuple(c), "known") for a, c in KNOWN]

    failures = []
    with tempfile.TemporaryDirectory() as tmp, \
            concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for group, cases in groups.items():
            results = list(pool.map(
                lambda c: run_case(binary, tmp, c), cases))
            bad = [r for r in results if r is not None]
            print(f"{group:16s} {len(cases):4d} malformed invocations, "
                  f"{len(bad)} failed")
            failures += bad
    for f in failures:
        print("FAIL", f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
