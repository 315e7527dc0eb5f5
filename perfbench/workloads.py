"""Inputs of the three benchmark workloads.

A builder receives the freshly imported ``qgramsearch`` module, the seed and
the smoke flag, and returns a :class:`Workload`.  All randomness is derived
from the seed, so the same seed gives the same bytes; the program under test
only ever sees those bytes.  Smoke sizes exist for the benchmark's own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import zip_longest

Q = 3  # q of every distq, ldistq and hashq query


@dataclass
class Query:
    """One (text, pattern) pair; every matcher is run on it."""

    text_id: int
    pattern: bytes
    expected_occ: int | None = None  # count promised by the generator


@dataclass
class Workload:
    name: str
    texts: list[bytes]
    queries: list[Query]
    cli_queries: list[int]  # query indices the CLI phase cycles through
    bench_spec: object  # small qgramsearch.BenchSpec over the same source
    props: dict  # input properties for the report


def occ_dna(qs, seed: int, smoke: bool) -> Workload:
    """Random σ = 4 texts with an exact number of embedded m = 8 patterns."""
    n, occ, corpora = (20_000, 64, 2) if smoke else (400_000, 1024, 8)
    rng = random.Random(f"occ-dna:{seed}")
    texts, queries, declined = [], [], 0
    while len(texts) < corpora:
        try:
            corpus = qs.random_text_with_occurrences(qs.CorpusSpec(
                n=n, sigma=4, m=8, occ=occ, seed=rng.getrandbits(63)))
        except qs.GenerationError:
            # A self-overlapping pattern (such as cdcccdcc) can keep creating
            # stray occurrences at the junctions of its copies; the generator
            # then refuses rather than return a wrong corpus, as documented.
            declined += 1
            if declined > corpora:
                raise
            continue
        queries.append(Query(len(texts), corpus.pattern,
                             expected_occ=corpus.occ))
        texts.append(corpus.text)
    spec = qs.BenchSpec(
        source=qs.EmbedSource(n=n // 4, sigma=4, occs=(occ // 4,)),
        pattern_lengths=(8,), qs=(Q,), seed=seed)
    return Workload("occ-dna", texts, queries, list(range(corpora)), spec,
                    dict(n=n, sigma=4, m=8, q=Q, occ_per_text=occ,
                         texts=corpora, declined_specs=declined))


def fib_periodic(qs, seed: int, smoke: bool) -> Workload:
    """Fibonacci string with sampled m = 8 and m = 32 patterns.

    Many windows are drawn and duplicates dropped, so each run measures
    (almost surely) every distinct factor of each length once.  A Fibonacci
    string has only m + 1 factors of length m, and their costs differ by up
    to 2.5x for hashq, so a handful of raw draws would make the figures
    depend on the seed rather than on the code.
    """
    k, draws = (15, 64) if smoke else (27, 512)
    rng = random.Random(f"fib-periodic:{seed}")
    text = qs.fibonacci_string(k)
    groups = [list(dict.fromkeys(
                  qs.sample_patterns(text, m, draws, rng.getrandbits(63))))
              for m in (8, 32)]
    queries = [Query(0, p) for pair in zip_longest(*groups) for p in pair
               if p is not None]
    # the CLI prints every position: 11 000 to 29 000 lines per m = 8 factor
    cli = [i for i, q in enumerate(queries) if len(q.pattern) == 8]
    spec = qs.BenchSpec(source=qs.FibonacciSource(k), pattern_lengths=(8, 32),
                        qs=(Q,), seed=seed)
    return Workload("fib-periodic", [text], queries, cli, spec,
                    dict(n=len(text), sigma=2, m=[8, 32], q=Q, k=k,
                         distinct_patterns=[len(g) for g in groups]))


def short_queries(qs, seed: int, smoke: bool) -> Workload:
    """Thousands of short σ = 95 records, each with its own m = 16 pattern."""
    count, lo, hi, cli = (20, 256, 1024, 4) if smoke else (2000, 1024, 4096, 20)
    rng = random.Random(f"short-queries:{seed}")
    texts, queries = [], []
    for i in range(count):
        s = rng.getrandbits(63)
        record = qs.random_text_with_occurrences(qs.CorpusSpec(
            n=rng.randint(lo, hi), sigma=95, m=16, occ=0, seed=s)).text
        texts.append(record)
        queries.append(Query(i, qs.sample_patterns(record, 16, 1, s)[0]))
    spec = qs.BenchSpec(source=qs.EmbedSource(n=hi, sigma=95, occs=(1,)),
                        pattern_lengths=(16,), qs=(Q,), seed=seed)
    return Workload("short-queries", texts, queries, list(range(cli)), spec,
                    dict(n=[lo, hi], sigma=95, m=16, q=Q, records=count))


BUILDERS = {
    "occ-dna": occ_dna,
    "fib-periodic": fib_periodic,
    "short-queries": short_queries,
}
