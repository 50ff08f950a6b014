package vehicle;

public @Component("Engine") class Engine {
    public @Port("p") void p() {}
}

@Component("a.b") class Dotted {}

@Component("Wheel") class Wheel {}
