from hypothesis import HealthCheck, settings

settings.register_profile(
    "tjdiv", deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("tjdiv")
