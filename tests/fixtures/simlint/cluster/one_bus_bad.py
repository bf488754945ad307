"""Bad fixture: observers named outside Cluster.run."""


class Cluster:
    def run(self, app, tracer=None):
        return app.run(tracer)

    def describe(self, recorder):  # one-bus
        return str(recorder)  # one-bus
