"""Bad fixture: second pool owners and cache paths beside the drain."""
from concurrent.futures import ProcessPoolExecutor


def run_points(tasks, cache=None, jobs=None):
    hits = [cache.get(task.spec) for task in tasks]  # one-drain: no graph=
    return hits, [cache.get(task.spec, graph=True) for task in tasks]  # twice


def prefetch(tasks):
    with ProcessPoolExecutor() as pool:  # one-drain
        return [pool.submit(execute_point, task) for task in tasks]  # again


def warm(cache, task):
    cache.put(task.spec, result=None)  # one-drain
