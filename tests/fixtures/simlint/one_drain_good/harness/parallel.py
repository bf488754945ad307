"""Good twin: run_points is the drain and _pool builds its one pool."""
from concurrent.futures import ProcessPoolExecutor, as_completed


def _pool(jobs):
    return ProcessPoolExecutor(max_workers=jobs)


def run_points(tasks, cache, jobs):
    hits = [cache.get(task.spec, graph=task.record) for task in tasks]
    with _pool(jobs) as pool:
        futures = [pool.submit(execute_point, task) for task in tasks]
        for future in as_completed(futures):
            cache.put(future.spec, result=future.result())
    return hits
