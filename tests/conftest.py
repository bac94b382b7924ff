from hypothesis import settings

# Property tests solve PDEs and write files, so one example can outlast
# hypothesis's default 200 ms deadline on a loaded machine; each test's
# @settings sets only its example count on top of this profile.
settings.register_profile("npde", deadline=None)
settings.load_profile("npde")
