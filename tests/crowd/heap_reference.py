"""The event-loop worker pool, kept as the reference for the platform's kernel.

:func:`heap_schedule` is the simulation the platform ran one copy at a
time: a min-heap of ``(time the worker becomes free, worker)``; the next
free worker takes the next copy, and a worker whose attention span runs
out is replaced by a fresh one after a new discovery delay.  It returns
what :func:`repro.crowd.platform._schedule` returns, from the same
:class:`WorkerPoolConfig` draws in its own order: arrivals, one speed per
attracted worker, one service time per copy, then a discovery delay and a
speed per replacement as the loop reaches it.
"""

import heapq

import numpy as np


def heap_schedule(config, n, rng):
    """``(workers, submit_times, busy, n_brought)`` for *n* copies."""
    n_workers = config.attracted_workers(n)
    arrivals = config.sample_arrival_times(n_workers, rng)
    speeds = [config.sample_worker_speed(rng) for _ in range(n_workers)]
    services = config.sample_service_times(n, rng)
    # Workers numbered from 0 within the batch; sorted arrivals are a heap.
    free_at = [(arrival, worker) for worker, arrival in enumerate(arrivals)]
    answered = [0] * n_workers
    span = config.attention_span
    workers = [0] * n
    submit_times = [0.0] * n
    for row, service in enumerate(services.tolist()):
        time_free, worker = free_at[0]
        submit = time_free + service * speeds[worker]
        workers[row] = worker
        submit_times[row] = submit
        answered[worker] += 1
        if span is None or answered[worker] < span:
            heapq.heapreplace(free_at, (submit, worker))
            continue
        arrival = submit + config.sample_discovery_time(rng)
        heapq.heapreplace(free_at, (arrival, len(speeds)))
        speeds.append(config.sample_worker_speed(rng))
        answered.append(0)
    local = np.array(workers, dtype=np.int64)
    busy = services * np.array(speeds)[local]
    return local, np.array(submit_times), busy, len(speeds)
