"""Good twin: Cluster.run attaches observers; RunResult keeps a report."""


class RunResult:
    sanitizer: object = None


class Cluster:
    def run(self, app, tracer=None, recorder=None):
        return RunResult(sanitizer=(tracer, recorder))
