module routerwatch/bench

go 1.22

require routerwatch v0.0.0

replace routerwatch => ../
