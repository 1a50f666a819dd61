from hypothesis import settings

# No per-example deadline: example times swing with load on small shared
# machines. Derandomized runs draw the same examples every time.
settings.register_profile("termassoc", deadline=None, derandomize=True)
settings.load_profile("termassoc")
